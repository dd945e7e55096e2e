//! Host-speed yardstick and output fingerprints, kept in the benchmark's
//! own files so that no library change can move them.
//!
//! [`queue_bfs`] is a frozen textbook queue BFS over the CSR arrays. It
//! reads the graph's `offsets` and `adjacency` slices and calls nothing
//! else from the library, so its time tracks the host, not the code: if
//! `ref.serial_ms_p50` moves between two runs, the machine moved.

/// Levels from `source` (`-1` for unreached), by a FIFO-queue BFS.
pub fn queue_bfs(offsets: &[usize], adjacency: &[u64], source: u64) -> Vec<i64> {
    let n = offsets.len() - 1;
    let mut levels = vec![-1i64; n];
    let mut queue = Vec::with_capacity(n);
    levels[source as usize] = 0;
    queue.push(source as usize);
    let mut head = 0;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        let next = levels[u] + 1;
        for &v in &adjacency[offsets[u]..offsets[u + 1]] {
            let v = v as usize;
            if levels[v] < 0 {
                levels[v] = next;
                queue.push(v);
            }
        }
    }
    levels
}

/// A 64-bit FNV-1a hash, fed one `i64` at a time in little-endian order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds every value of `values` into the hash.
    pub fn write(&mut self, values: &[i64]) {
        for v in values {
            for b in v.to_le_bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_bfs_levels_a_path_and_leaves_islands_unreached() {
        // 0 - 1 - 2, and 3 alone.
        let offsets = [0, 1, 3, 4, 4];
        let adjacency = [1, 0, 2, 1];
        assert_eq!(queue_bfs(&offsets, &adjacency, 0), vec![0, 1, 2, -1]);
        assert_eq!(queue_bfs(&offsets, &adjacency, 2), vec![2, 1, 0, -1]);
    }

    #[test]
    fn fnv_depends_on_values_and_their_order() {
        let hash = |values: &[i64]| {
            let mut h = Fnv::default();
            h.write(values);
            h
        };
        assert_eq!(hash(&[]), Fnv::default());
        assert_eq!(hash(&[1, 2]), hash(&[1, 2]));
        assert_ne!(hash(&[1, 2]), hash(&[2, 1]));
        assert_ne!(hash(&[0]), hash(&[]));
    }
}
