use std::cell::{Cell, RefCell};
use std::rc::Rc;

// An Arc here would be an atomic on every packet hop; `std::sync` in a
// comment or a "Mutex" in a string is not one.
pub struct Frame(Rc<Vec<u8>>);

struct Table {
    inner: RefCell<Vec<u8>>,
    sent: Cell<u64>,
    label: &'static str,
}

fn sync(table: &Table) -> &'static str {
    table.sent.set(table.sent.get() + 1);
    "Arc<Mutex<AtomicU64>>"
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    #[test]
    fn tests_may_share() {
        let _ = Arc::new(0u8);
    }
}
