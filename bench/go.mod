module kjoin/bench

go 1.22

require kjoin v0.0.0

replace kjoin => ../
