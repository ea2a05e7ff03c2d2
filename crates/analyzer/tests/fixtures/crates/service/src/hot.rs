//! Fixture hot path: every forbidden allocating construct inside one
//! fence (rule 2), plus the escapes that must stay silent.

// lint: hot-path
pub fn leaky(data: &[u8], out: &mut Vec<u8>) {
    let v: Vec<u8> = Vec::new();
    let copy = data.to_vec();
    let owned = copy.clone();
    let msg = format!("{} bytes", owned.len());
    out.extend_from_slice(msg.as_bytes());
    drop(v);
}

pub fn frugal(data: &[u8], out: &mut Vec<u8>) {
    let mut scratch: Vec<u8> = Vec::with_capacity(data.len());
    scratch.extend_from_slice(data);
    out.extend_from_slice(&scratch);
    // lint: allow(alloc) fixture: the annotation must suppress rule 2
    let _blessed = data.to_vec();
}
// lint: end-hot-path

pub fn unfenced(data: &[u8]) -> Vec<u8> {
    data.to_vec()
}
