module bookmarkgc/benchmark

go 1.22

require bookmarkgc v0.0.0

replace bookmarkgc => ../
