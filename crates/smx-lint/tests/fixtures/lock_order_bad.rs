// Deliberately-bad fixture: lock-order violations the pass must catch.
// Not a cargo target — never compiled.

use std::sync::Mutex;

struct S {
    outer: Mutex<u32>,
    inner: Mutex<u32>,
    chan: std::sync::mpsc::Receiver<u32>,
}

impl S {
    fn inversion(&self) {
        let i = self.inner.lock().unwrap();
        let o = self.outer.lock().unwrap(); // BAD: outer after inner
        drop(o);
        drop(i);
    }

    fn blocking_while_held(&self) {
        let g = self.middle.lock().unwrap();
        let v = self.chan.recv(); // BAD: lock held across blocking recv
        drop(g);
    }

    fn scrutinee_holds_guard(&self) {
        match self.inner.lock().unwrap().checked_add(1) {
            Some(_) => {
                // BAD: the scrutinee temporary still holds `inner` here.
                let o = self.outer.lock().unwrap();
                drop(o);
            }
            None => {}
        }
    }

    fn acquire_method_inversion(&self, pool: &Pool) {
        let i = self.inner.lock().unwrap();
        let h = pool.health(); // BAD: `health` maps to `middle`, outer-ranked than inner
        drop(h);
    }

    // A `>>` closing two generic levels must not hide the functions after it.
    fn nested_generics(&self) -> Result<Vec<Vec<u32>>, ()> {
        Ok(Vec::new())
    }

    fn mut_guard_is_held_too(&self) {
        let mut g = self.outer.lock().unwrap();
        *g += 1;
        heavy_dp(); // BAD: a `let mut` guard lives to its `}` like a `let` one
        drop(g);
    }
}
