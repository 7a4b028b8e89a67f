module reactivenoc/benchmark

go 1.22

require reactivenoc v0.0.0

replace reactivenoc => ../
