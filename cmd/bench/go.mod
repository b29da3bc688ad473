module github.com/deeprecinfra/deeprecsys/cmd/bench

go 1.22

require github.com/deeprecinfra/deeprecsys v0.0.0

replace github.com/deeprecinfra/deeprecsys => ../..
