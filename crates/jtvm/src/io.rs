//! The ASR port environment.
//!
//! An object subclassed from `ASR` is "operated by providing it with
//! inputs, which causes the system to produce outputs" (paper §4.2). The
//! environment presents one [`PortDatum`] per input port for the duration
//! of one reaction; the builtin `read`/`readVec` return that datum (any
//! number of times — within an instant the signal does not change), and
//! `write`/`writeVec` set output ports.

use crate::error::RuntimeError;

/// A value carried by an ASR port during one instant.
#[derive(Debug, PartialEq, Eq)]
pub enum PortDatum {
    /// A scalar sample.
    Int(i64),
    /// A vector sample (e.g. an image plane).
    Vec(Vec<i64>),
}

impl Clone for PortDatum {
    fn clone(&self) -> Self {
        match self {
            PortDatum::Int(v) => PortDatum::Int(*v),
            PortDatum::Vec(v) => PortDatum::Vec(v.clone()),
        }
    }

    /// Reuses the destination's vector buffer when both sides are
    /// vectors, so a port re-presented every instant allocates only when
    /// its sample grows.
    fn clone_from(&mut self, source: &Self) {
        match (self, source) {
            (PortDatum::Vec(dst), PortDatum::Vec(src)) => dst.clone_from(src),
            (dst, src) => *dst = src.clone(),
        }
    }
}

/// The port state of an engine, restarted for every reaction.
///
/// An engine keeps one `Io` for its whole life: [`Io::restart`] copies
/// the inputs into the previous reaction's buffers, so a steady-state
/// reaction allocates nothing here. Port I/O between [`Io::end`] and
/// the next restart (e.g. from a constructor) is an error.
#[derive(Debug, Clone, Default)]
pub struct Io {
    inputs: Vec<PortDatum>,
    outputs: Vec<Option<PortDatum>>,
    live: bool,
}

impl Io {
    /// Starts a reaction: presents `inputs` on the input ports and marks
    /// every output port unwritten, reusing the buffers of the last
    /// reaction.
    pub fn restart(&mut self, inputs: &[PortDatum]) {
        inputs.clone_into(&mut self.inputs);
        self.outputs.clear();
        self.live = true;
    }

    /// Ends the reaction: port I/O fails until the next
    /// [`Io::restart`].
    pub fn end(&mut self) {
        self.live = false;
    }

    /// The outputs written by the current or last reaction (`None` for
    /// ports the program did not write — absent signals).
    pub fn outputs(&self) -> &[Option<PortDatum>] {
        &self.outputs
    }

    /// Reads the scalar on input `port`.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::PortOutOfRange`] / [`RuntimeError::PortKindMismatch`].
    pub fn read(&self, port: i64) -> Result<i64, RuntimeError> {
        match self.input(port)? {
            PortDatum::Int(v) => Ok(*v),
            PortDatum::Vec(_) => Err(RuntimeError::PortKindMismatch { port }),
        }
    }

    /// Reads the vector on input `port`.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::PortOutOfRange`] / [`RuntimeError::PortKindMismatch`].
    pub fn read_vec(&self, port: i64) -> Result<&[i64], RuntimeError> {
        match self.input(port)? {
            PortDatum::Vec(v) => Ok(v),
            PortDatum::Int(_) => Err(RuntimeError::PortKindMismatch { port }),
        }
    }

    fn input(&self, port: i64) -> Result<&PortDatum, RuntimeError> {
        self.require_live()?;
        usize::try_from(port)
            .ok()
            .and_then(|i| self.inputs.get(i))
            .ok_or(RuntimeError::PortOutOfRange { port })
    }

    /// Writes a scalar to output `port` (growing the output vector if the
    /// program writes past the declared count — the environment learns
    /// the real port count from the program).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::PortOutOfRange`] on negative ports.
    pub fn write(&mut self, port: i64, value: i64) -> Result<(), RuntimeError> {
        self.output_slot(port).map(|s| *s = Some(PortDatum::Int(value)))
    }

    /// Writes a vector to output `port`.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::PortOutOfRange`] on negative ports.
    pub fn write_vec(&mut self, port: i64, value: Vec<i64>) -> Result<(), RuntimeError> {
        self.output_slot(port).map(|s| *s = Some(PortDatum::Vec(value)))
    }

    fn output_slot(&mut self, port: i64) -> Result<&mut Option<PortDatum>, RuntimeError> {
        self.require_live()?;
        let idx = usize::try_from(port).map_err(|_| RuntimeError::PortOutOfRange { port })?;
        if idx >= self.outputs.len() {
            self.outputs.resize(idx + 1, None);
        }
        Ok(&mut self.outputs[idx])
    }

    fn require_live(&self) -> Result<(), RuntimeError> {
        if self.live {
            Ok(())
        } else {
            Err(RuntimeError::Unsupported("port I/O outside react()".into()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn started(inputs: &[PortDatum]) -> Io {
        let mut io = Io::default();
        io.restart(inputs);
        io
    }

    #[test]
    fn reads_are_repeatable_within_an_instant() {
        let io = started(&[PortDatum::Int(5), PortDatum::Vec(vec![1, 2])]);
        assert_eq!(io.read(0).unwrap(), 5);
        assert_eq!(io.read(0).unwrap(), 5);
        assert_eq!(io.read_vec(1).unwrap(), &[1, 2]);
    }

    #[test]
    fn kind_and_range_errors() {
        let io = started(&[PortDatum::Int(5)]);
        assert!(matches!(
            io.read(1),
            Err(RuntimeError::PortOutOfRange { port: 1 })
        ));
        assert!(matches!(
            io.read(-1),
            Err(RuntimeError::PortOutOfRange { port: -1 })
        ));
        assert!(matches!(
            io.read_vec(0),
            Err(RuntimeError::PortKindMismatch { port: 0 })
        ));
    }

    #[test]
    fn outputs_grow_and_report_unwritten_ports() {
        let mut io = started(&[]);
        io.write(2, 9).unwrap();
        io.write_vec(0, vec![3]).unwrap();
        assert!(io.write(-1, 0).is_err());
        let outs = io.outputs();
        assert_eq!(outs.len(), 3);
        assert_eq!(outs[0], Some(PortDatum::Vec(vec![3])));
        assert_eq!(outs[1], None);
        assert_eq!(outs[2], Some(PortDatum::Int(9)));
    }

    #[test]
    fn restart_reuses_buffers_and_forgets_outputs() {
        let mut io = started(&[PortDatum::Vec(vec![1, 2, 3])]);
        io.write(1, 4).unwrap();
        let buf = io.read_vec(0).unwrap().as_ptr();
        io.end();
        io.restart(&[PortDatum::Vec(vec![7, 8])]);
        assert_eq!(io.read_vec(0).unwrap(), &[7, 8]);
        assert_eq!(
            io.read_vec(0).unwrap().as_ptr(),
            buf,
            "vector port reallocated"
        );
        assert!(io.outputs().is_empty());
    }

    #[test]
    fn port_io_outside_a_reaction_is_an_error() {
        let mut io = Io::default();
        assert!(matches!(io.read(0), Err(RuntimeError::Unsupported(_))));
        io.restart(&[PortDatum::Int(1)]);
        io.end();
        assert!(matches!(io.write(0, 1), Err(RuntimeError::Unsupported(_))));
    }
}
