package pisa

import "fmt"

// Register is a stateful SRAM array: Size cells of Width bits each. On
// Tofino a register supports one read-modify-write per packet;
// Program.Validate enforces that statically (each register may be
// accessed by at most one op per table, and by several tables only when
// their gateways are provably mutually exclusive).
//
// Values are stored sign-extended in int32 but clamped to the cell width
// on write, mirroring the hardware truncation. The paper's footnote that
// "PISA switches do not support 4-bit registers" is enforced: Width must
// be 8, 16 or 32.
type Register struct {
	Name  string
	Width int
	Size  int
	// Init is the value every cell holds before the first packet (and
	// after ResetState) — min-trackers initialise to a +max sentinel.
	Init int32
	vals []int32

	// Shard-major banked layout, installed by Program.CompactRegisters:
	// under the engine's cell ≡ Hash (mod shards) convention, logical
	// cell idx is stored at (idx mod shards)·bank + idx/shards, so the
	// cells owned by one shard occupy one contiguous bank of the arena
	// instead of being strided across it — workers stop false-sharing
	// cache lines with their neighbours. shards ≤ 1 is the natural
	// (identity) layout.
	shards int
	bank   int // Size / shards
	// Shift/mask addressing when Size and shards are both powers of two
	// (the emitted shape: flow tables are power-of-two sized), which in
	// the natural layout — mask and shard shift zero — is the identity;
	// divide is set for the other banked layouts.
	divide     bool
	shardMask  int
	shardShift uint // log2(shards)
	bankShift  uint // log2(bank)
}

// NewRegister allocates a zero-initialised register array.
func NewRegister(name string, width, size int) (*Register, error) {
	return NewRegisterInit(name, width, size, 0)
}

// NewRegisterInit allocates a register array whose cells start at (and
// reset to) init, truncated to the cell width.
func NewRegisterInit(name string, width, size int, init int32) (*Register, error) {
	switch width {
	case 8, 16, 32:
	default:
		return nil, fmt.Errorf("pisa: register %q width %d unsupported (PISA registers are 8/16/32-bit)", name, width)
	}
	if size <= 0 {
		return nil, fmt.Errorf("pisa: register %q size %d", name, size)
	}
	r := &Register{Name: name, Width: width, Size: size, Init: init, vals: make([]int32, size)}
	if init != 0 {
		r.Reset()
	}
	return r, nil
}

// pos maps a logical cell index to its arena position under the
// current layout.
func (r *Register) pos(idx int) int {
	if r.divide {
		return (idx%r.shards)*r.bank + idx/r.shards
	}
	return (idx&r.shardMask)<<r.bankShift | idx>>r.shardShift
}

// cell returns the arena position of logical cell idx, or -1 when idx
// is out of range — one unsigned compare, negative indices wrapping
// past every size. The plan's sealed register ops address through it.
func (r *Register) cell(idx int32) int {
	if uint32(idx) >= uint32(r.Size) {
		return -1
	}
	return r.pos(int(idx))
}

// Get reads cell idx (0 when out of range, matching hardware OOB reads of
// an unprogrammed cell).
func (r *Register) Get(idx int) int32 {
	if idx < 0 || idx >= r.Size {
		return 0
	}
	return r.vals[r.pos(idx)]
}

// Set writes cell idx, truncating to the register width.
func (r *Register) Set(idx int, v int32) {
	if idx < 0 || idx >= r.Size {
		return
	}
	switch r.Width {
	case 8:
		r.vals[r.pos(idx)] = int32(int8(v))
	case 16:
		r.vals[r.pos(idx)] = int32(int16(v))
	default:
		r.vals[r.pos(idx)] = v
	}
}

// Fill sets every cell to v, truncating to the register width. The
// banked layout is a bijection, so filling raw positions covers every
// logical cell.
func (r *Register) Fill(v int32) {
	switch r.Width {
	case 8:
		v = int32(int8(v))
	case 16:
		v = int32(int16(v))
	}
	for i := range r.vals {
		r.vals[i] = v
	}
}

// rebase moves the register's contents into dst (len == Size) laid out
// shard-major for the given shard count, and makes dst the backing
// store. shards that do not divide Size fall back to the natural
// layout. Logical contents are preserved: rebase decodes through the
// old layout and re-encodes into the new one.
func (r *Register) rebase(dst []int32, shards int) {
	if len(dst) != r.Size {
		panic("pisa: register rebase size mismatch")
	}
	if shards < 1 || r.Size%shards != 0 {
		shards = 1
	}
	bank := r.Size / shards
	if shards <= 1 {
		for i := 0; i < r.Size; i++ {
			dst[i] = r.vals[r.pos(i)]
		}
	} else {
		for i := 0; i < r.Size; i++ {
			dst[(i%shards)*bank+i/shards] = r.vals[r.pos(i)]
		}
	}
	r.vals = dst
	r.shards, r.bank = shards, bank
	r.divide = shards > 1 && (shards&(shards-1) != 0 || r.Size&(r.Size-1) != 0)
	r.shardMask, r.shardShift, r.bankShift = shards-1, uint(log2(shards)), uint(log2(bank))
}

// log2 returns ⌊log₂ n⌋ for n ≥ 1.
func log2(n int) int {
	k := 0
	for n > 1 {
		n >>= 1
		k++
	}
	return k
}

// Reset restores every cell to the register's initial value.
func (r *Register) Reset() {
	r.Fill(r.Init)
}

// SRAMBits returns the stateful SRAM the register consumes.
func (r *Register) SRAMBits() int { return r.Width * r.Size }
