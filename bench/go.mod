module trips/bench

go 1.24

require trips v0.0.0

replace trips => ../
