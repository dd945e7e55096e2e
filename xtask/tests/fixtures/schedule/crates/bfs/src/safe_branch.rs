//! Negative fixture: the safe pattern. A branch decided by a prior
//! allreduce (the `[u64; 3]` hybrid idiom). Zero findings expected.

pub fn allreduce_decided(comm: &Comm, mine: u64, bufs: Vec<WireBuf>) {
    let total = comm.allreduce(mine, |a, b| a + b);
    if total > 4 {
        comm.allgatherv_wire(bufs.pop().unwrap());
    } else {
        comm.alltoallv_wire(bufs);
    }
}
