//! Fixture WAL discipline: each discard shape of rule 1, plus the
//! handled forms that must stay silent.

use crate::Wal;

pub fn underscore_discard(wal: &mut Wal, payload: &[u8]) {
    let _ = wal.append(payload);
}

pub fn swallowed(wal: &mut Wal, refs: &[&[u8]]) {
    wal.append_batch(refs).ok();
}

pub fn bare_statement(wal: &mut Wal, payload: &[u8]) {
    wal.append(payload);
}

pub fn propagated(wal: &mut Wal, payload: &[u8]) -> std::io::Result<usize> {
    let n = wal.append(payload)?;
    Ok(n)
}

pub fn tail_position(wal: &mut Wal, refs: &[&[u8]]) -> std::io::Result<usize> {
    wal.append_batch(refs)
}
