module profileme/bench

go 1.22

require profileme v0.0.0

replace profileme => ../
