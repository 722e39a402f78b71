module rottnest/benchmark

go 1.22

require rottnest v0.0.0

replace rottnest => ../
