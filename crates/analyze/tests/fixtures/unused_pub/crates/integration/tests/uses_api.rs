// Fixture: an integration test naming one library item. This comment
// names mentioned_in_a_comment, and so does the string below; neither is
// a use.
#[test]
fn calls_the_library() {
    assert_eq!(p3q_topk::called_by_an_integration_test(), 2);
    let _ = "mentioned_in_a_comment";
}
