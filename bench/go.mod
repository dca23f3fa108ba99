module mdxopt/bench

go 1.22

require mdxopt v0.0.0

replace mdxopt => ../
