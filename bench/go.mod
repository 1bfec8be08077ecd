module jsymphony/bench

go 1.22

require jsymphony v0.0.0

replace jsymphony => ../
