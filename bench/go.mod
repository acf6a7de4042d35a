module powerdrill/bench

go 1.22

require powerdrill v0.0.0

replace powerdrill => ../
