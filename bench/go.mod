module medmaker/bench

go 1.22

require medmaker v0.0.0

replace medmaker => ../
