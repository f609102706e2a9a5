pub fn pump(&mut self, ctx: &mut Ctx) {
    // A movable deadline goes through the one discipline.
    self.wakeup.arm(ctx, self.session.next_wakeup());
    // A relative one-shot stays a plain timer.
    ctx.set_timer_after(self.cfg.reaction_delay, TIMER_REACTION);
    // Naming the method without calling it is not a finding.
    let _doc = "see Ctx::set_timer_at";
}

#[cfg(test)]
mod tests {
    fn kick(ctx: &mut Ctx) {
        ctx.set_timer_at(SimTime::ZERO, TimerToken(0));
    }
}
