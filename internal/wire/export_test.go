package wire

// ReplyBuffer exposes the reply writer's buffer size to the framing
// test.
const ReplyBuffer = replyBuffer
