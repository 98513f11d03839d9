// Fixture: an example calling the library's public API.
fn main() {
    let node = p3q::eager::Node {
        tasks: Default::default(),
    };
    let _ = p3q::eager::sorted_sum(&node);
    let _ = p3q::eager::first_ptr(&mut [0]);
    let _ = p3q::eager::unit_rng(1, 2);
}
