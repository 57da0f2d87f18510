module hotline/benchmark

go 1.24

require hotline v0.0.0

replace hotline => ../
