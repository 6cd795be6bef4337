package shm

// sysProcessVMReadv is process_vm_readv's number on linux/arm64.
const sysProcessVMReadv = 270
