package shm

// sysProcessVMReadv is process_vm_readv's number on linux/amd64; the
// syscall package does not define it there.
const sysProcessVMReadv = 310
