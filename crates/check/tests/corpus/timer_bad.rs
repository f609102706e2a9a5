pub fn pump(&mut self, ctx: &mut Ctx) {
    if let Some(at) = self.session.next_wakeup() {
        if self.armed != Some(at) {
            self.armed = Some(at);
            ctx.set_timer_at(at, TIMER_SESSION);
        }
    }
}
