module github.com/dataspread/dataspread/bench

go 1.22

require github.com/dataspread/dataspread v0.0.0

replace github.com/dataspread/dataspread => ../
