use std::time::Duration;

pub fn budget(per_item: Duration, items: u32) -> Duration {
    per_item * items
}
