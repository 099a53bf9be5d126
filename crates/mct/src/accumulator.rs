//! Time-averaging and accumulation registers.
//!
//! "Registers for time averaging and accumulation of field data for use in
//! coupling concurrently executing components that do not share a common
//! time-step, or are coupled at a frequency of multiple time-steps"
//! (paper §4.5 — MCT's `Accumulator`).

use std::collections::HashMap;

use crate::attrvect::AttrVect;

/// What happens to a field when the register is read out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccumAction {
    /// Running sum is returned as-is (accumulated fluxes).
    Sum,
    /// Running sum is divided by the number of accumulated steps
    /// (time-averaged states).
    Average,
}

/// A per-rank accumulation register over one field set.
#[derive(Debug, Clone, PartialEq)]
pub struct Accumulator {
    running: AttrVect,
    actions: HashMap<String, AccumAction>,
    steps: u64,
}

impl Accumulator {
    /// Creates a zeroed register for the given real fields with one action
    /// per field.
    pub fn new(fields: &[(&str, AccumAction)], length: usize) -> Self {
        let names: Vec<&str> = fields.iter().map(|(n, _)| *n).collect();
        let actions = fields.iter().map(|(n, a)| (n.to_string(), *a)).collect::<HashMap<_, _>>();
        Accumulator { running: AttrVect::new(&names, &[], length), actions, steps: 0 }
    }

    /// Accumulates one time-step of data (fields not in the register are
    /// ignored; registered fields must be present in `av`).
    pub fn accumulate(&mut self, av: &AttrVect) {
        assert_eq!(av.lsize(), self.running.lsize(), "length mismatch");
        let names: Vec<String> = self.running.real_names().to_vec();
        for name in names {
            let src = av.real(&name);
            let dst = self.running.real_mut(&name);
            for (d, s) in dst.iter_mut().zip(src) {
                *d += s;
            }
        }
        self.steps += 1;
    }

    /// Reads the register out (applying each field's action) and resets it.
    ///
    /// # Panics
    /// If nothing was accumulated.
    pub fn retrieve(&mut self) -> AttrVect {
        assert!(self.steps > 0, "retrieve on an empty accumulator");
        let mut out = self.running.clone();
        let names: Vec<String> = out.real_names().to_vec();
        for name in names {
            if self.actions[&name] == AccumAction::Average {
                let inv = 1.0 / self.steps as f64;
                for v in out.real_mut(&name) {
                    *v *= inv;
                }
            }
        }
        self.reset();
        out
    }

    /// Zeroes the register.
    pub(crate) fn reset(&mut self) {
        self.running.zero();
        self.steps = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_av(step: f64) -> AttrVect {
        let mut av = AttrVect::new(&["state", "flux"], &[], 3);
        av.real_mut("state").copy_from_slice(&[step, step * 2.0, step * 3.0]);
        av.real_mut("flux").copy_from_slice(&[1.0, 1.0, 1.0]);
        av
    }

    #[test]
    fn average_and_sum_actions() {
        let mut acc =
            Accumulator::new(&[("state", AccumAction::Average), ("flux", AccumAction::Sum)], 3);
        for step in 1..=4 {
            acc.accumulate(&step_av(step as f64));
        }
        assert_eq!(acc.steps, 4);
        let out = acc.retrieve();
        // Average of 1..4 = 2.5 per unit.
        assert_eq!(out.real("state"), &[2.5, 5.0, 7.5]);
        // Sum of four unit fluxes.
        assert_eq!(out.real("flux"), &[4.0, 4.0, 4.0]);
        // Register reset after retrieve.
        assert_eq!(acc.steps, 0);
    }

    #[test]
    fn reuse_after_retrieve() {
        let mut acc = Accumulator::new(&[("state", AccumAction::Average)], 3);
        acc.accumulate(&step_av(10.0));
        acc.retrieve();
        acc.accumulate(&step_av(4.0));
        let out = acc.retrieve();
        assert_eq!(out.real("state"), &[4.0, 8.0, 12.0]);
    }

    #[test]
    fn extra_fields_in_input_are_ignored() {
        let mut acc = Accumulator::new(&[("flux", AccumAction::Sum)], 3);
        acc.accumulate(&step_av(1.0)); // has both state and flux
        let out = acc.retrieve();
        assert_eq!(out.real("flux"), &[1.0, 1.0, 1.0]);
        assert_eq!(out.num_real(), 1);
    }

    #[test]
    #[should_panic(expected = "empty accumulator")]
    fn retrieve_without_accumulate_panics() {
        Accumulator::new(&[("f", AccumAction::Sum)], 1).retrieve();
    }
}
