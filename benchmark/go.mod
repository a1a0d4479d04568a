module cage/benchmark

go 1.24

require cage v0.0.0

replace cage => ../
