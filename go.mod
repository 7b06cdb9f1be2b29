module hatrpc

go 1.22

toolchain go1.24.0
