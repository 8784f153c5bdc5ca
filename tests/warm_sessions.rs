//! One compiled query, many sessions: what the query keeps from one
//! session for the next — the projection automaton's memoised transitions
//! and the plan of the schema last attached — must be invisible in every
//! output and every count, whether the sessions run one after the other
//! or at the same time on two threads. The differential matrix's warm
//! axis holds that for every suite's corpus; this suite gives it
//! documents with different vocabularies in different orders (the
//! generator's regions and categories vary with the seed and the size),
//! so the run-local symbols of one session mean other names in the next.

mod common;

use common::{cases, contract, xmark};
use gcx::schema::Dtd;
use gcx::xmark::queries;

#[test]
fn two_threads_sharing_a_compiled_query_see_what_a_cold_query_sees() {
    let docs: Vec<String> = [(11, 8), (12, 24), (13, 8), (14, 48), (15, 16), (16, 8)]
        .iter()
        .map(|&(seed, kib)| xmark(kib, seed))
        .collect();
    let texts: Vec<&str> = queries::paper_queries().iter().map(|q| q.1).collect();
    // Each query serves every document, blind and then with the DTD.
    let dtd = Dtd::xmark();
    let all: Vec<_> = docs
        .iter()
        .flat_map(|doc| [None, Some(&dtd)].map(|dtd| cases(&texts, &[doc], dtd)))
        .flatten()
        .collect();
    contract(&all);
}
