//! The IO fault-injection counter (`pathcost_persist::faults`). It is
//! process-wide, so its checks run as the one test of this binary: no other
//! test can arm or consume a failure between two of its assertions.

use pathcost_persist::faults::take_injected_failure;
use pathcost_persist::{armed_io_errors, clear_io_errors, inject_io_errors};

#[test]
fn injection_fails_exactly_n_operations_and_clear_disarms_the_rest() {
    clear_io_errors();
    assert!(take_injected_failure().is_none());
    inject_io_errors(2);
    assert_eq!(armed_io_errors(), 2);
    assert!(take_injected_failure().is_some());
    assert!(take_injected_failure().is_some());
    assert!(take_injected_failure().is_none());
    assert_eq!(armed_io_errors(), 0);

    inject_io_errors(5);
    clear_io_errors();
    assert!(take_injected_failure().is_none());
}
