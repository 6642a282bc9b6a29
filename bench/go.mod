module droppackets/bench

go 1.22

require droppackets v0.0.0

replace droppackets => ../
