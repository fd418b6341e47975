module github.com/pegasus-idp/pegasus/bench

go 1.24

require github.com/pegasus-idp/pegasus v0.0.0

replace github.com/pegasus-idp/pegasus => ../
