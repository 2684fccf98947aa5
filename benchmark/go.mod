module layph/benchmark

go 1.24

require layph v0.0.0

replace layph => ../
