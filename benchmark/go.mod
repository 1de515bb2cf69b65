module kexclusion/benchmark

go 1.22

require kexclusion v0.0.0

replace kexclusion => ../
