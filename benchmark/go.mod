module noftl/benchmark

go 1.24

require noftl v0.0.0

replace noftl => ../
