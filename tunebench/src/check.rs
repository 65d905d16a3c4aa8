//! Correctness checks: every response and every in-process call is
//! compared against a reference the benchmark computes itself.

use autotune::rng::Rng;
use autotune::serve::protocol::{OP_MATCH, OP_PING, OP_SORT};

/// What the response to one request must contain.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Expect {
    /// `OP_MATCH`: the occurrence count of a bare reference matcher.
    Match(u32),
    /// `OP_SORT`: ok byte 1, the size class, and the wrapping sum of the
    /// keys the server derives from the request's seed.
    Sort { class: u32, sum: u64 },
    /// The null server: the `OP_PING` frame [`NULL_PAYLOAD`] echoed.
    Echo,
}

/// Payload of the requests sent to the null server.
pub const NULL_PAYLOAD: &[u8] = b"null";

/// The keys an `OP_SORT` request with this seed and presort hint makes
/// the server sort (the same derivation as the served handler).
pub fn sort_keys(n: usize, seed: u64, nearly_sorted: bool) -> Vec<u64> {
    let mut rng = Rng::new(seed);
    if nearly_sorted {
        smallsort::nearly_sorted_input(n, &mut rng)
    } else {
        (0..n).map(|_| rng.next_u64()).collect()
    }
}

/// Expected response of an `OP_SORT` request.
pub fn expect_sort(n: usize, seed: u64, nearly_sorted: bool) -> Expect {
    let sum = sort_keys(n, seed, nearly_sorted)
        .into_iter()
        .fold(0u64, u64::wrapping_add);
    Expect::Sort {
        class: smallsort::size_class(n),
        sum,
    }
}

/// Does a response frame `(op, payload)` satisfy `expect`?
pub fn response_ok(expect: &Expect, op: u8, payload: &[u8]) -> bool {
    match *expect {
        Expect::Match(count) => {
            op == OP_MATCH && payload.len() == 4 && payload[..4] == count.to_le_bytes()
        }
        Expect::Sort { class, sum } => {
            op == OP_SORT
                && payload.len() == 13
                && payload[0] == 1
                && payload[1..5] == class.to_le_bytes()
                && payload[5..13] == sum.to_le_bytes()
        }
        Expect::Echo => op == OP_PING && payload == NULL_PAYLOAD,
    }
}

/// Is `output` the sorted permutation of the input whose sorted copy is
/// `reference`? Equality with the reference shows both that the output
/// is ascending and that it holds exactly the input's keys.
pub fn sorted_permutation(reference: &[u64], output: &[u64]) -> bool {
    output == reference
}

#[cfg(test)]
mod tests {
    use super::*;
    use autotune::serve::protocol::OP_ERR;

    #[test]
    fn match_checker_rejects_a_wrong_count_or_opcode() {
        let e = Expect::Match(7);
        assert!(response_ok(&e, OP_MATCH, &7u32.to_le_bytes()));
        assert!(!response_ok(&e, OP_MATCH, &8u32.to_le_bytes()));
        assert!(!response_ok(&e, OP_ERR, &7u32.to_le_bytes()));
        assert!(!response_ok(&e, OP_MATCH, &[7, 0, 0]));
    }

    fn sort_response(ok: u8, class: u32, sum: u64) -> Vec<u8> {
        let mut p = vec![ok];
        p.extend_from_slice(&class.to_le_bytes());
        p.extend_from_slice(&sum.to_le_bytes());
        p
    }

    #[test]
    fn sort_checker_rejects_each_corrupted_field() {
        let e = expect_sort(96, 77, false);
        let Expect::Sort { class, sum } = e else {
            unreachable!()
        };
        assert_eq!(class, 7);
        assert!(response_ok(&e, OP_SORT, &sort_response(1, class, sum)));
        assert!(!response_ok(&e, OP_SORT, &sort_response(0, class, sum)));
        assert!(!response_ok(&e, OP_SORT, &sort_response(1, class + 1, sum)));
        assert!(!response_ok(&e, OP_SORT, &sort_response(1, class, sum ^ 1)));
    }

    #[test]
    fn presort_hint_reorders_but_keeps_the_keys() {
        // A nearly-sorted input is the same draw of keys, sorted and then
        // lightly perturbed: the checksum cannot tell the hints apart, the
        // context key can.
        assert_eq!(expect_sort(64, 5, false), expect_sort(64, 5, true));
        let keys = sort_keys(64, 5, true);
        assert_eq!(
            smallsort::presort_class(&keys),
            smallsort::PRESORT_NEARLY_SORTED
        );
    }

    #[test]
    fn echo_checker_rejects_another_opcode_or_payload() {
        assert!(response_ok(&Expect::Echo, OP_PING, NULL_PAYLOAD));
        assert!(!response_ok(&Expect::Echo, OP_MATCH, NULL_PAYLOAD));
        assert!(!response_ok(&Expect::Echo, OP_PING, b"nul"));
        assert!(!response_ok(&Expect::Echo, OP_PING, b"nulL"));
    }

    #[test]
    fn permutation_checker_rejects_unsorted_or_altered_output() {
        let reference = vec![1, 2, 2, 9];
        assert!(sorted_permutation(&reference, &[1, 2, 2, 9]));
        assert!(!sorted_permutation(&reference, &[2, 1, 2, 9]));
        assert!(!sorted_permutation(&reference, &[1, 2, 3, 9]));
        assert!(!sorted_permutation(&reference, &[1, 2, 9]));
    }
}
