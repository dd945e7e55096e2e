// Fixture: seeded `no-post-deposit-mutation` violations (lines 5, 12).

pub fn scribbles_on_received(comm: &Comm, bufs: Vec<WireBuf>) {
    let recv = comm.alltoallv_wire(bufs);
    recv[0].bytes_mut()[0] = 0xFF;
}

pub fn scribbles_through_alias(comm: &Comm, bufs: Vec<WireBuf>) {
    let recv = comm.alltoallv_wire(bufs);
    let all = recv;
    let mut theirs = all[1].clone();
    theirs.bytes_mut().push(0);
}

// Negative case: a payload is freely mutable while it is being built —
// every legitimate mutation (codec output, verifier checksum, fault flip)
// happens before the deposit seals it. The lint must not fire here.
pub fn builds_before_send(comm: &Comm, mut buf: WireBuf) {
    buf.bytes_mut().push(7);
    let _ = comm.alltoallv_wire(vec![buf]);
}
