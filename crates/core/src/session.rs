//! The typed ride-session lifecycle.
//!
//! PTRider's interaction model is inherently two-phase (PAPER.md, Fig. 1):
//! the system answers a request with a price/time skyline, and the *rider*
//! later chooses an option or declines. A [`crate::RideService`] session is
//! the server-side handle for one such exchange:
//!
//! ```text
//!            submit                    respond(Choose)
//!   Pending ───────────▶ Offered ─────────────────────▶ Confirmed
//!                          │   │
//!                          │   │ respond(Decline)
//!                          │   └────────────────────────▶ Declined
//!                          │ tick(now) past expires_at
//!                          └────────────────────────────▶ Expired
//! ```
//!
//! `Pending` is the transient state while the matcher runs; `Offered`
//! carries the option skyline and the offer deadline; the three terminal
//! states release every per-request hold (the prospective request and the
//! offered options) so a resolved session keeps only its metadata. All
//! illegal transitions — double-choose, responding after expiry, responding
//! to an unknown or still-matching session — are rejected with a typed
//! [`ServiceError`].

use crate::engine::EngineError;
use crate::options::RideOption;
use crate::request::Request;
use ptrider_vehicles::{ProspectiveRequest, RequestId, VehicleId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a ride session (one submit → offer → response exchange).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SessionId(pub u64);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Identifier of one option inside an [`Offer`] (its index in the offered
/// skyline, which is sorted by pick-up time).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct OptionId(pub u32);

impl fmt::Display for OptionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

/// The rider's answer to an [`Offer`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Take the option with this id (index into the offered skyline).
    Choose(OptionId),
    /// Take none of the options.
    Decline,
}

/// Where a session stands in its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SessionState {
    /// Submitted; the matcher is still computing the skyline.
    Pending,
    /// An offer is open: the rider may respond until `expires_at`.
    Offered,
    /// The rider chose an option and the assignment was committed.
    Confirmed,
    /// The rider declined every option.
    Declined,
    /// The offer deadline passed before the rider responded.
    Expired,
}

impl SessionState {
    /// `true` for the three terminal states.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            SessionState::Confirmed | SessionState::Declined | SessionState::Expired
        )
    }
}

impl fmt::Display for SessionState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SessionState::Pending => "pending",
            SessionState::Offered => "offered",
            SessionState::Confirmed => "confirmed",
            SessionState::Declined => "declined",
            SessionState::Expired => "expired",
        };
        f.write_str(s)
    }
}

/// The service's answer to a submit: a session handle, the offered skyline
/// and the offer deadline.
#[derive(Clone, Debug)]
pub struct Offer {
    /// The session this offer belongs to.
    pub session: SessionId,
    /// The engine-level request id (stable across the session; useful for
    /// joining with vehicle stop events).
    pub request: RequestId,
    /// The skyline of non-dominated options, sorted by pick-up time. May be
    /// empty — the rider still owns the session and should decline (or let
    /// it expire).
    pub options: Vec<RideOption>,
    /// Deadline (in workload seconds): [`crate::RideService::respond`]
    /// accepts a response while `now <= expires_at`.
    pub expires_at: f64,
}

impl Offer {
    /// The option with the given id, if it exists.
    pub fn option(&self, id: OptionId) -> Option<&RideOption> {
        self.options.get(id.0 as usize)
    }

    /// Option ids paired with their options, in skyline order.
    pub fn iter_ids(&self) -> impl Iterator<Item = (OptionId, &RideOption)> {
        self.options
            .iter()
            .enumerate()
            .map(|(i, o)| (OptionId(i as u32), o))
    }
}

/// Receipt for a confirmed choice.
#[derive(Clone, Debug)]
pub struct Confirmation {
    /// The confirmed session.
    pub session: SessionId,
    /// The engine-level request id.
    pub request: RequestId,
    /// The option that was committed (vehicle, pickup, price, schedule).
    pub option: RideOption,
}

/// Errors returned by the session front door.
#[derive(Clone, Debug, PartialEq)]
pub enum ServiceError {
    /// The session id was never issued (or was pruned after resolution).
    UnknownSession(SessionId),
    /// The session is still matching; no offer exists to respond to yet.
    NotYetOffered(SessionId),
    /// The session already reached the given terminal state (double-choose,
    /// respond-after-decline, respond-after-expiry all land here).
    AlreadyResolved(SessionId, SessionState),
    /// The offer deadline passed; the session has been expired.
    OfferExpired(SessionId),
    /// The decision names an option id outside the offered skyline.
    UnknownOption(SessionId, OptionId),
    /// The underlying engine rejected the operation (e.g. the chosen
    /// vehicle can no longer honour the option).
    Engine(EngineError),
    /// A shared lock on the named structure was poisoned by a panicking
    /// writer; the service refuses mutations until it is rebuilt (e.g. via
    /// `RideService::recover` from the admission journal).
    Unavailable(&'static str),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownSession(s) => write!(f, "session {s} is unknown"),
            ServiceError::NotYetOffered(s) => write!(f, "session {s} has no offer yet"),
            ServiceError::AlreadyResolved(s, state) => {
                write!(f, "session {s} is already {state}")
            }
            ServiceError::OfferExpired(s) => write!(f, "the offer of session {s} has expired"),
            ServiceError::UnknownOption(s, o) => {
                write!(f, "session {s} has no option {o}")
            }
            ServiceError::Engine(e) => write!(f, "engine: {e}"),
            ServiceError::Unavailable(lock) => {
                write!(f, "service unavailable: the {lock} lock was poisoned")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<EngineError> for ServiceError {
    fn from(e: EngineError) -> Self {
        ServiceError::Engine(e)
    }
}

/// Server-side session record. Held by the service's session table; the
/// matcher-facing bookkeeping (`prospective`, `options`) is only present
/// while the offer is open and is released on resolution.
#[derive(Clone, Debug)]
pub(crate) struct Session {
    pub(crate) id: SessionId,
    pub(crate) request: Request,
    pub(crate) state: SessionState,
    pub(crate) expires_at: f64,
    /// The validated, matcher-facing request — the per-request state that
    /// is released when the session resolves.
    pub(crate) prospective: Option<ProspectiveRequest>,
    pub(crate) options: Vec<RideOption>,
    /// Vehicle tentatively holding capacity for this offer (only with
    /// `ServiceConfig::hold_offers`): option 0 is committed at offer time so
    /// a later confirm can never fail, and the hold is released on decline,
    /// expiry, or switching to another option.
    pub(crate) hold: Option<VehicleId>,
}

impl Session {
    /// A freshly submitted session, still matching.
    pub(crate) fn pending(
        id: SessionId,
        request: Request,
        prospective: ProspectiveRequest,
    ) -> Self {
        Session {
            id,
            request,
            state: SessionState::Pending,
            expires_at: f64::INFINITY,
            prospective: Some(prospective),
            options: Vec::new(),
            hold: None,
        }
    }

    /// Transition `Pending → Offered` with the matched skyline.
    pub(crate) fn offer(&mut self, options: Vec<RideOption>, expires_at: f64) {
        debug_assert_eq!(self.state, SessionState::Pending);
        self.state = SessionState::Offered;
        self.options = options;
        self.expires_at = expires_at;
    }

    /// Checks whether the session can accept a rider response at `now`,
    /// without changing state. The caller expires an overdue offer on
    /// [`ServiceError::OfferExpired`].
    pub(crate) fn respond_gate(&self, now: f64) -> Result<(), ServiceError> {
        match self.state {
            SessionState::Offered if now <= self.expires_at => Ok(()),
            SessionState::Offered => Err(ServiceError::OfferExpired(self.id)),
            SessionState::Pending => Err(ServiceError::NotYetOffered(self.id)),
            state => Err(ServiceError::AlreadyResolved(self.id, state)),
        }
    }

    /// Moves the session into a terminal state and releases every
    /// per-request hold.
    pub(crate) fn resolve(&mut self, state: SessionState) {
        debug_assert!(state.is_terminal(), "resolve() takes a terminal state");
        self.state = state;
        self.prospective = None;
        self.options = Vec::new();
        self.options.shrink_to_fit();
        self.hold = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptrider_roadnet::VertexId;

    fn session() -> Session {
        let request = Request::new(RequestId(7), VertexId(0), VertexId(5), 1, 10.0);
        let prospective =
            ProspectiveRequest::new(RequestId(7), VertexId(0), VertexId(5), 1, 1000.0, 0.2);
        Session::pending(SessionId(3), request, prospective)
    }

    fn offered(expires_at: f64) -> Session {
        let mut s = session();
        s.offer(Vec::new(), expires_at);
        s
    }

    #[test]
    fn pending_sessions_cannot_be_responded_to() {
        let s = session();
        assert_eq!(
            s.respond_gate(10.0),
            Err(ServiceError::NotYetOffered(SessionId(3)))
        );
    }

    #[test]
    fn offered_sessions_accept_responses_until_the_deadline() {
        let s = offered(20.0);
        assert_eq!(s.respond_gate(10.0), Ok(()));
        // Inclusive deadline: a response *at* the deadline is accepted
        // (this is what makes the `PTRIDER_OFFER_TTL_SECS=0` CI run viable:
        // same-timestamp responses still land).
        assert_eq!(s.respond_gate(20.0), Ok(()));
        assert_eq!(
            s.respond_gate(20.1),
            Err(ServiceError::OfferExpired(SessionId(3)))
        );
    }

    #[test]
    fn terminal_states_reject_further_responses_and_release_holds() {
        for terminal in [
            SessionState::Confirmed,
            SessionState::Declined,
            SessionState::Expired,
        ] {
            let mut s = offered(20.0);
            s.resolve(terminal);
            assert!(s.prospective.is_none(), "resolution must release the hold");
            assert!(s.options.is_empty());
            assert_eq!(
                s.respond_gate(10.0),
                Err(ServiceError::AlreadyResolved(SessionId(3), terminal))
            );
        }
    }

    #[test]
    fn state_terminality() {
        assert!(!SessionState::Pending.is_terminal());
        assert!(!SessionState::Offered.is_terminal());
        assert!(SessionState::Confirmed.is_terminal());
        assert!(SessionState::Declined.is_terminal());
        assert!(SessionState::Expired.is_terminal());
        assert_eq!(SessionState::Offered.to_string(), "offered");
        assert_eq!(SessionId(4).to_string(), "s4");
        assert_eq!(OptionId(2).to_string(), "o2");
    }

    #[test]
    fn offer_lookup_by_option_id() {
        let offer = Offer {
            session: SessionId(1),
            request: RequestId(2),
            options: Vec::new(),
            expires_at: 5.0,
        };
        assert!(offer.option(OptionId(0)).is_none());
        assert_eq!(offer.iter_ids().count(), 0);
    }
}
