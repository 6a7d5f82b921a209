//! Minimal stand-in for `bytes`: a growable byte buffer plus the
//! little-endian `Buf`/`BufMut` accessors the graph binary format uses.

#![forbid(unsafe_code)]

/// Growable byte buffer (a thin wrapper over `Vec<u8>`).
#[derive(Clone, Debug, Default)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
        }
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn to_vec(&self) -> Vec<u8> {
        self.buf.clone()
    }
}

/// Write side: append little-endian scalars.
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    fn put_u32_le(&mut self, n: u32) {
        self.put_slice(&n.to_le_bytes());
    }

    fn put_u64_le(&mut self, n: u64) {
        self.put_slice(&n.to_le_bytes());
    }

    fn put_f64_le(&mut self, n: f64) {
        self.put_slice(&n.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

/// Read side: consume little-endian scalars from the front.
///
/// Reading past the end panics, like the real crate.
pub trait Buf {
    fn remaining(&self) -> usize;
    fn copy_to_slice(&mut self, dst: &mut [u8]);

    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }

    fn get_f64_le(&mut self) -> f64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        f64::from_le_bytes(b)
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(dst.len() <= self.len(), "buffer underflow");
        let (head, tail) = self.split_at(dst.len());
        dst.copy_from_slice(head);
        *self = tail;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut b = BytesMut::with_capacity(32);
        b.put_slice(b"MAGIC");
        b.put_u32_le(7);
        b.put_u64_le(1 << 40);
        b.put_f64_le(0.5);
        let v = b.to_vec();
        let mut r: &[u8] = &v;
        let mut magic = [0u8; 5];
        r.copy_to_slice(&mut magic);
        assert_eq!(&magic, b"MAGIC");
        assert_eq!(r.get_u32_le(), 7);
        assert_eq!(r.get_u64_le(), 1 << 40);
        assert_eq!(r.get_f64_le(), 0.5);
        assert_eq!(r.remaining(), 0);
    }
}
