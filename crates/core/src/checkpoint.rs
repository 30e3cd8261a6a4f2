//! Engine checkpoints: operator state at a retired phase boundary.
//!
//! A [`LiveEngine`](crate::LiveEngine) that has retired phase `p` holds,
//! per vertex, exactly the state the sequential oracle would hold after
//! running phases `1..=p`: the module's internal state plus the
//! latest-value memory per input edge ("using previous values for any
//! inputs it has not received", §3.1.2). [`EngineCheckpoint`] captures
//! both, so a restarted process can resume at phase `p + 1` without
//! replaying the whole history — only the write-ahead-log tail after the
//! checkpoint (see the `ec-store` crate).
//!
//! Checkpoints are only meaningful at *retired* boundaries (every
//! admitted phase completed): mid-flight state would capture a
//! non-serializable cut.
//! [`LiveEngine::checkpoint_vertices`](crate::LiveEngine::checkpoint_vertices)
//! enforces this.

use ec_events::{SnapshotError, StateReader, StateSnapshot, StateWriter, Value};
use ec_graph::VertexId;

/// State of one vertex at a retired phase boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct VertexState {
    /// The vertex this state belongs to.
    pub vertex: VertexId,
    /// The module's serialized internal state ([`StateSnapshot::Stateless`]
    /// for modules with nothing to save).
    pub module: StateSnapshot,
    /// Latest value remembered per input edge, in edge order.
    pub latest: Vec<Option<Value>>,
}

/// Engine state at a retired phase boundary: one entry per vertex, in
/// `VertexId` order.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineCheckpoint {
    /// The retired phase this checkpoint captures (all phases `<= phase`
    /// completed; none beyond started).
    pub phase: u64,
    /// Per-vertex state, sorted by vertex id.
    pub vertices: Vec<VertexState>,
}

impl VertexState {
    /// Serializes into a snapshot payload.
    pub fn encode_into(&self, w: &mut StateWriter) {
        w.put_u32(self.vertex.index() as u32);
        match &self.module {
            StateSnapshot::Stateless => w.put_u8(0),
            StateSnapshot::Bytes(b) => {
                w.put_u8(1);
                w.put_bytes(b);
            }
            // An unsupported module never reaches encoding: checkpoint
            // creation fails first. Encoded as a distinct tag so a
            // hand-built file cannot masquerade as restorable.
            StateSnapshot::Unsupported => w.put_u8(2),
        }
        w.put_u32(self.latest.len() as u32);
        for v in &self.latest {
            w.put_opt_value(v);
        }
    }

    /// Decodes one vertex state.
    pub fn decode_from(r: &mut StateReader<'_>) -> Result<VertexState, SnapshotError> {
        let vertex = VertexId(r.get_u32()?);
        let module = match r.get_u8()? {
            0 => StateSnapshot::Stateless,
            1 => StateSnapshot::Bytes(r.get_bytes()?),
            2 => StateSnapshot::Unsupported,
            other => return Err(SnapshotError::new(format!("bad module-state tag {other}"))),
        };
        let n = r.get_u32()? as usize;
        let mut latest = Vec::with_capacity(n);
        for _ in 0..n {
            latest.push(r.get_opt_value()?);
        }
        Ok(VertexState {
            vertex,
            module,
            latest,
        })
    }
}

impl EngineCheckpoint {
    /// Serializes the whole checkpoint into a snapshot payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = StateWriter::new();
        w.put_u64(self.phase);
        w.put_u32(self.vertices.len() as u32);
        for v in &self.vertices {
            v.encode_into(&mut w);
        }
        w.into_bytes()
    }

    /// Decodes a payload produced by [`encode`](Self::encode).
    pub fn decode(bytes: &[u8]) -> Result<EngineCheckpoint, SnapshotError> {
        let mut r = StateReader::new(bytes);
        let phase = r.get_u64()?;
        let n = r.get_u32()? as usize;
        let mut vertices = Vec::with_capacity(n);
        for _ in 0..n {
            vertices.push(VertexState::decode_from(&mut r)?);
        }
        r.finish()?;
        Ok(EngineCheckpoint { phase, vertices })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EngineCheckpoint {
        EngineCheckpoint {
            phase: 42,
            vertices: vec![
                VertexState {
                    vertex: VertexId(0),
                    module: StateSnapshot::Stateless,
                    latest: vec![],
                },
                VertexState {
                    vertex: VertexId(1),
                    module: StateSnapshot::Bytes(vec![1, 2, 3]),
                    latest: vec![Some(Value::Int(7)), None, Some(Value::text("x"))],
                },
            ],
        }
    }

    #[test]
    fn round_trips() {
        let chk = sample();
        let bytes = chk.encode();
        assert_eq!(EngineCheckpoint::decode(&bytes).unwrap(), chk);
    }

    #[test]
    fn truncation_detected() {
        let bytes = sample().encode();
        assert!(EngineCheckpoint::decode(&bytes[..bytes.len() - 1]).is_err());
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(EngineCheckpoint::decode(&extended).is_err());
    }

    #[test]
    fn unsupported_tag_round_trips() {
        let chk = EngineCheckpoint {
            phase: 1,
            vertices: vec![VertexState {
                vertex: VertexId(3),
                module: StateSnapshot::Unsupported,
                latest: vec![None],
            }],
        };
        let back = EngineCheckpoint::decode(&chk.encode()).unwrap();
        assert_eq!(back.vertices[0].module, StateSnapshot::Unsupported);
    }
}
