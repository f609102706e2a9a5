use std::sync::Arc;

pub struct Frame(Arc<Vec<u8>>);

static SENT: std::sync::atomic::AtomicU64 = AtomicU64::new(0);

struct Table {
    inner: Mutex<Vec<u8>>,
}
