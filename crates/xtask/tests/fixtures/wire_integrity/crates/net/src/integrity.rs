pub fn chunk_seq(payload: &[u8]) -> u32 {
    u32::from_le_bytes(payload[..4].try_into().expect("4"))
}
