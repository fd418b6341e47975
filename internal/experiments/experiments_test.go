package experiments

import (
	"errors"
	"io"
	"strings"
	"testing"
)

// quick is the one quick-preset suite every test below renders from.
// Bundles are cached on the suite and the tests run one after another,
// so the zoo trains once per dataset for the whole package.
var quick = NewSuite(Config{FlowsPerClass: 14, Epochs: 0.05, Seed: 3})

// TestSuiteRunsEveryArtefact smoke-tests Suite.Run for every named
// artefact at a quick preset: the full model zoo trains, compiles
// through the staged pipeline, and every table/figure renders without
// error.
func TestSuiteRunsEveryArtefact(t *testing.T) {
	for _, name := range Names {
		var b strings.Builder
		if err := quick.Run(name, &b); err != nil {
			t.Fatalf("Run(%q): %v", name, err)
		}
		if b.Len() == 0 {
			t.Fatalf("Run(%q) produced no output", name)
		}
	}
}

// TestSuiteRunAll exercises the "all" dispatcher on the already-trained
// suite (bundle reuse keeps this cheap).
func TestSuiteRunAll(t *testing.T) {
	if err := quick.Run("all", io.Discard); err != nil {
		t.Fatalf("Run(all): %v", err)
	}
}

// TestSuiteRejectsUnknownArtefact checks the error path names the
// available experiments — for a name that never existed and for a
// retired systems experiment alike — and that "all" keeps the error
// chain of the artefact that failed.
func TestSuiteRejectsUnknownArtefact(t *testing.T) {
	for _, name := range []string{"fig99", "engine"} {
		err := quick.Run(name, io.Discard)
		if !errors.Is(err, ErrUnknown) {
			t.Fatalf("Run(%q): want ErrUnknown, got %v", name, err)
		}
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error should name the unknown experiment %q: %v", name, err)
		}
		for _, have := range Names {
			if !strings.Contains(err.Error(), have) {
				t.Fatalf("error should list available experiment %q: %v", have, err)
			}
		}
	}
	if len(Names) != 7 {
		t.Fatalf("Names = %v, want the seven paper artefacts", Names)
	}

	saved := Names
	Names = append([]string{"fig99"}, saved...)
	err := quick.Run("all", io.Discard)
	Names = saved
	if !errors.Is(err, ErrUnknown) || !strings.HasPrefix(err.Error(), "fig99: ") {
		t.Fatalf("Run(all) should wrap the failing artefact's error under its name: %v", err)
	}

	if err := quick.Run("fig8", io.Discard); err != nil {
		t.Fatalf("suite unusable after rejection: %v", err)
	}
}

// TestSuiteUnknownDataset checks Bundle propagates dataset errors.
func TestSuiteUnknownDataset(t *testing.T) {
	if _, err := quick.Bundle("NotADataset"); err == nil {
		t.Fatal("want error for unknown dataset")
	}
}
