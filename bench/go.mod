module dpsim/bench

go 1.24

require dpsim v0.0.0

replace dpsim => ../
