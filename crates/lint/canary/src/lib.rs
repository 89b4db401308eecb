//! One offending use per ban in the root `clippy.toml`.

use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::hash::RandomState;
use std::sync::{Mutex, RwLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Wall clock, hash order and ambient entropy.
pub fn types() -> (
    Instant,
    SystemTime,
    HashMap<u8, u8>,
    HashSet<u8>,
    RandomState,
) {
    (
        Instant::now(),
        SystemTime::now(),
        HashMap::new(),
        HashSet::new(),
        RandomState::new(),
    )
}

/// Wall-clock pacing and reads.
pub fn wallclock() {
    std::thread::sleep(std::time::Duration::ZERO);
    let _ = UNIX_EPOCH.elapsed();
}

/// Environment reads.
pub fn env() {
    let _ = std::env::var("SMA_CANARY");
    let _ = std::env::var_os("SMA_CANARY");
    let _ = std::env::vars().count();
    let _ = std::env::vars_os().count();
}

/// Thread spawns.
pub fn threads() {
    let _ = std::thread::spawn(|| ()).join();
    let _ = std::thread::Builder::new().spawn(|| ()).map(|h| h.join());
    std::thread::scope(|scope| {
        let _ = std::thread::Builder::new().spawn_scoped(scope, || ());
        scope.spawn(|| ());
    });
}

/// A partial float order.
pub fn partial_order(a: f64, b: f64) -> Option<Ordering> {
    a.partial_cmp(&b)
}

/// Rounding methods whose result is usually cast to an integer.
pub fn rounding(x: f64, y: f32) -> (f64, f64, f64, f64, f32, f32, f32, f32) {
    (
        x.round(),
        x.floor(),
        x.ceil(),
        x.trunc(),
        y.round(),
        y.floor(),
        y.ceil(),
        y.trunc(),
    )
}

/// Lock acquisitions.
pub fn locks(m: &Mutex<u8>, rw: &RwLock<u8>) {
    drop(m.lock());
    drop(rw.read());
    drop(rw.write());
}
