module cooper/benchmark

go 1.22

require cooper v0.0.0

replace cooper => ../
