module xqdb/bench

go 1.24

require xqdb v0.0.0

replace xqdb => ../
