module hatrpc/bench

go 1.22

require hatrpc v0.0.0

replace hatrpc => ../
