//! Wire-size accounting for every message class the strategies exchange.
//!
//! The evaluation charges *uplink* traffic by message count (Figures 4(a),
//! 5(a), 6(a)) and *downlink* traffic by payload bits (Figure 6(b)), so the
//! constants here fix the units of those plots.
//!
//! The two safe-period rules both sides of the wire must agree on —
//! what the server grants ([`safe_period_s`]) and how long the client
//! then stays silent ([`silent_steps`]) — live here too, beside the
//! payload sizes the live wire protocol already takes from this module:
//! the simulator and `sa-server` call the same two functions.

use sa_geometry::Rect;

/// Payload sizes in bits.
pub mod payload {
    /// Client → server location update: subscriber id (32) + position
    /// (2 × 32) + heading and speed packed (32).
    pub const LOCATION_UPDATE_BITS: usize = 128;

    /// Client → server alarm-trigger notification (OPT evaluates alarms
    /// client-side): subscriber id + alarm id.
    pub const TRIGGER_NOTIFY_BITS: usize = 64;

    /// Server → client trigger delivery: alarm id + flags.
    pub const TRIGGER_DELIVERY_BITS: usize = 64;

    /// Header on any server → client safe-region or alarm-set payload:
    /// message type + sequence (32) and grid-cell id (32).
    pub const REGION_HEADER_BITS: usize = 64;

    /// One alarm pushed to an OPT client: alarm id (32) + rectangle
    /// (4 × 32).
    pub const ALARM_PUSH_BITS: usize = 160;

    /// Server → client safe-period grant: period in ms (32).
    pub const SAFE_PERIOD_BITS: usize = 32;
}

/// The safe period, in seconds, of a subscriber `nearest_m` meters from
/// its nearest relevant unfired alarm region: the time a straight run at
/// `v_max` needs to get there, so no alarm can be reached sooner.
///
/// With no such alarm at all (`None`) the grant is still finite — twice
/// the universe's longer side at `v_max` — so the subscriber reports
/// again and learns of alarms installed since; any finite value is
/// sound, this one outlasts every crossing of the universe.
pub fn safe_period_s(nearest_m: Option<f64>, universe: Rect, v_max: f64) -> f64 {
    let horizon_m = 2.0 * universe.width().max(universe.height());
    nearest_m.unwrap_or(horizon_m) / v_max
}

/// Samples a client stays silent on a grant of `period_s` when it
/// samples every `dt` seconds: `floor(period / dt)`, at least one.
///
/// The rounding direction is the safety argument: the next report must
/// come no later than the period's end, and rounding *up* could let the
/// client slip inside an alarm region before it. The floor of one is
/// free — the next sample is the earliest a client can report anyway,
/// and every report is trigger-checked. Flooring the period to whole
/// milliseconds first, as the wire's grant does, cannot change the
/// result while `dt` is itself a whole number of milliseconds.
pub fn silent_steps(period_s: f64, dt: f64) -> u32 {
    ((period_s.max(0.0) / dt).floor() as u32).max(1)
}

#[cfg(test)]
mod tests {
    use super::payload::*;

    #[test]
    fn uplink_messages_are_small() {
        // Uplink messages must be payload-light; the evaluation counts them
        // rather than weighing them.
        const { assert!(LOCATION_UPDATE_BITS <= 256) };
        const { assert!(TRIGGER_NOTIFY_BITS <= LOCATION_UPDATE_BITS) };
    }

    #[test]
    fn downlink_sizes_reflect_content() {
        // An OPT alarm push carries a full rectangle and dwarfs a
        // safe-period grant.
        const { assert!(ALARM_PUSH_BITS > SAFE_PERIOD_BITS) };
        assert_eq!(ALARM_PUSH_BITS, 32 + 4 * 32);
    }
}
