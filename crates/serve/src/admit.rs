//! Token-based admission control with a bounded wait queue.
//!
//! An arriving request takes one of three deterministic paths:
//!
//! * **run** — an execution token is free (`inflight < limit`); the request
//!   starts immediately,
//! * **queue** — no token, but the bounded FIFO wait queue has room,
//! * **reject** — no token and the queue is full; the request is dropped
//!   and counted.
//!
//! When a running request completes, its token passes to the queue head (if
//! any). All decisions are pure functions of arrival order, so the rejection
//! count is exactly reproducible for a given seed — one of the server's
//! determinism guarantees (see `tests/serve_determinism.rs` at the repo
//! root).

use std::collections::VecDeque;

/// The admission decision for one arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admit {
    /// A token was free: start the request now.
    Run,
    /// Parked in the wait queue; it will be handed a token on a completion.
    Queued,
    /// Queue full: dropped.
    Rejected,
}

/// Token limiter + bounded FIFO queue over tickets of type `T`.
#[derive(Debug)]
pub struct AdmissionControl<T> {
    limit: u32,
    queue_cap: u32,
    inflight: u32,
    queue: VecDeque<T>,
    /// Requests that got a token (immediately or after queueing).
    pub admitted: u64,
    /// Requests that waited in the queue before running.
    pub queued: u64,
    /// Requests dropped because the queue was full.
    pub rejected: u64,
}

impl<T> AdmissionControl<T> {
    /// A limiter with `limit` execution tokens and room for `queue_cap`
    /// waiting requests. `limit` is clamped to at least 1 (a server that can
    /// run nothing would deadlock).
    pub fn new(limit: u32, queue_cap: u32) -> AdmissionControl<T> {
        AdmissionControl {
            limit: limit.max(1),
            queue_cap,
            inflight: 0,
            queue: VecDeque::new(),
            admitted: 0,
            queued: 0,
            rejected: 0,
        }
    }

    /// Offer an arriving ticket. On [`Admit::Run`] the caller must start the
    /// request (a token is now held on its behalf).
    pub fn offer(&mut self, ticket: T) -> Admit {
        if self.inflight < self.limit {
            self.inflight += 1;
            self.admitted += 1;
            Admit::Run
        } else if (self.queue.len() as u32) < self.queue_cap {
            self.queue.push_back(ticket);
            self.queued += 1;
            Admit::Queued
        } else {
            self.rejected += 1;
            Admit::Rejected
        }
    }

    /// A running request finished: release its token. If a ticket is
    /// waiting, the token passes to it — the caller must start the returned
    /// ticket now.
    pub fn complete(&mut self) -> Option<T> {
        debug_assert!(self.inflight > 0, "complete() without a running request");
        self.inflight = self.inflight.saturating_sub(1);
        let next = self.queue.pop_front();
        if next.is_some() {
            self.inflight += 1;
            self.admitted += 1;
        }
        next
    }

    /// Requests currently holding execution tokens.
    pub fn inflight(&self) -> u32 {
        self.inflight
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_then_queue_then_reject() {
        let mut ac: AdmissionControl<u32> = AdmissionControl::new(2, 1);
        assert_eq!(ac.offer(0), Admit::Run);
        assert_eq!(ac.offer(1), Admit::Run);
        assert_eq!(ac.offer(2), Admit::Queued);
        assert_eq!(ac.offer(3), Admit::Rejected);
        assert_eq!((ac.admitted, ac.queued, ac.rejected), (2, 1, 1));
        assert_eq!(ac.inflight(), 2);
    }

    #[test]
    fn completion_hands_token_to_queue_head_in_fifo_order() {
        let mut ac: AdmissionControl<u32> = AdmissionControl::new(1, 8);
        assert_eq!(ac.offer(10), Admit::Run);
        assert_eq!(ac.offer(11), Admit::Queued);
        assert_eq!(ac.offer(12), Admit::Queued);
        assert_eq!(ac.complete(), Some(11));
        assert_eq!(ac.complete(), Some(12));
        assert_eq!(ac.complete(), None);
        assert_eq!(ac.inflight(), 0);
        assert_eq!(ac.admitted, 3);
    }

    #[test]
    fn zero_limit_is_clamped_to_one() {
        let mut ac: AdmissionControl<u32> = AdmissionControl::new(0, 0);
        assert_eq!(ac.offer(0), Admit::Run);
        assert_eq!(ac.offer(1), Admit::Rejected);
    }
}
