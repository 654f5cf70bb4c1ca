module ndgraph/bench

go 1.22

require ndgraph v0.0.0

replace ndgraph => ../
