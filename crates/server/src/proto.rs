//! HTTP/1.1 wire logic for the transport.
//!
//! The event loops of [`crate::epoll`] feed their inbound bytes through
//! [`try_parse`] and render every answer with [`render_response`] /
//! [`plain_response`]. The parser is *incremental* —
//! it consumes a growable connection buffer and reports either
//! [`ParseOutcome::Incomplete`] (read more) or a complete message plus how
//! many bytes it spanned, so pipelined requests left in the buffer are
//! preserved for the next round instead of being dropped with the stream.
//!
//! Bodies are captured (up to [`MAX_BODY`]) and handed to the service in
//! [`Request::body`]; the batch endpoints read their query lists from
//! there. Protocol-level rejections (oversized head, unparseable
//! `Content-Length`, non-UTF-8) surface as [`HttpError`] values that render
//! to `4xx` responses and always close the connection.

use crate::json::Json;
use crate::service::{ApiResponse, Request};

/// Upper bound on request head size; longer heads are rejected.
pub(crate) const MAX_HEAD: usize = 16 * 1024;
/// Upper bound on a declared request body; larger is answered `413` without
/// reading it. (Single-query endpoints carry their inputs in the query
/// string; batch endpoints post JSON bodies well under this cap.)
pub(crate) const MAX_BODY: usize = 1024 * 1024;

/// A transport-level parse rejection (always closes the connection).
#[derive(Debug)]
pub(crate) struct HttpError {
    /// HTTP status to answer with (`400` or `413`).
    pub status: u16,
    /// Human-readable reason, returned as `{"error": ...}`.
    pub message: String,
}

impl HttpError {
    pub(crate) fn bad(message: impl Into<String>) -> HttpError {
        HttpError {
            status: 400,
            message: message.into(),
        }
    }

    /// The JSON response this rejection renders to.
    pub(crate) fn to_response(&self) -> ApiResponse {
        ApiResponse {
            status: self.status,
            body: Json::obj().set("error", self.message.as_str()),
            retry_after: None,
        }
    }
}

/// One fully received request (or a parse rejection) plus the connection
/// disposition the client asked for.
pub(crate) struct ParsedRequest {
    /// The parsed API request, or the protocol error to answer with.
    pub parsed: Result<Request, HttpError>,
    /// Whether the client wants the connection kept open afterwards.
    /// Rejections force this to `false`.
    pub keep_alive: bool,
}

/// Outcome of one incremental parse attempt over a connection buffer.
pub(crate) enum ParseOutcome {
    /// The buffer does not yet hold a complete message — read more bytes.
    Incomplete,
    /// One complete message spanning the first `consumed` buffer bytes.
    /// The caller drains those bytes; anything after them is the next
    /// pipelined request.
    Ready {
        /// The parsed (or rejected) message.
        request: ParsedRequest,
        /// Bytes of the buffer this message occupied.
        consumed: usize,
    },
}

fn reject(error: HttpError, consumed: usize) -> ParseOutcome {
    ParseOutcome::Ready {
        request: ParsedRequest {
            parsed: Err(error),
            keep_alive: false,
        },
        consumed,
    }
}

/// Attempts to parse one complete HTTP/1.1 request from the front of `buf`.
///
/// Incremental and restartable: call again after appending more bytes.
/// Oversized heads, unparseable or oversized `Content-Length`, and
/// non-UTF-8 heads come back as `Ready` with an [`HttpError`] (the
/// connection closes after the error response); `consumed` for rejections
/// is the whole buffer, since nothing after a malformed head is
/// trustworthy.
pub(crate) fn try_parse(buf: &[u8]) -> ParseOutcome {
    let Some(head_end) = find_head_end(buf) else {
        if buf.len() > MAX_HEAD {
            return reject(HttpError::bad("request head too large"), buf.len());
        }
        return ParseOutcome::Incomplete;
    };

    let head_text = match std::str::from_utf8(&buf[..head_end]) {
        Ok(t) => t,
        Err(_) => return reject(HttpError::bad("request head is not UTF-8"), buf.len()),
    };
    let mut lines = head_text.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut content_length = 0usize;
    let mut keep_alive = true; // HTTP/1.1 default
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            // An unparseable length means the message boundary is unknowable:
            // reject rather than guess (a zero guess would misparse the body
            // as the next pipelined request).
            content_length = match value.parse() {
                Ok(n) => n,
                Err(e) => {
                    return reject(
                        HttpError::bad(format!("bad Content-Length: {e}")),
                        buf.len(),
                    )
                }
            };
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        }
    }
    if content_length > MAX_BODY {
        return reject(
            HttpError {
                status: 413,
                message: format!(
                    "declared body of {content_length} bytes exceeds the {MAX_BODY}-byte cap"
                ),
            },
            buf.len(),
        );
    }

    let body_start = head_end + 4;
    let total = body_start + content_length;
    if buf.len() < total {
        return ParseOutcome::Incomplete;
    }

    let parsed = parse_request_line(request_line)
        .map(|mut request| {
            request.body = buf[body_start..total].to_vec();
            request
        })
        .map_err(HttpError::bad);
    ParseOutcome::Ready {
        request: ParsedRequest { parsed, keep_alive },
        consumed: total,
    }
}

pub(crate) fn find_head_end(head: &[u8]) -> Option<usize> {
    head.windows(4).position(|w| w == b"\r\n\r\n")
}

pub(crate) fn parse_request_line(line: &str) -> Result<Request, String> {
    let mut parts = line.split(' ');
    let method = parts.next().unwrap_or_default();
    let target = parts.next().ok_or("malformed request line")?;
    if !matches!(method, "GET" | "POST" | "DELETE") {
        return Err(format!("unsupported method {method:?}"));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    Ok(Request {
        method: method.to_string(),
        path: percent_decode(path)?,
        params: parse_query(query)?,
        body: Vec::new(),
    })
}

/// Decodes `a=1&b=two` with `%XX` escapes and `+` for space.
pub(crate) fn parse_query(query: &str) -> Result<Vec<(String, String)>, String> {
    query
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| {
            let (k, v) = kv.split_once('=').unwrap_or((kv, ""));
            Ok((percent_decode(k)?, percent_decode(v)?))
        })
        .collect()
}

pub(crate) fn percent_decode(s: &str) -> Result<String, String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .and_then(|h| u8::from_str_radix(h, 16).ok())
                    .ok_or_else(|| format!("bad percent escape in {s:?}"))?;
                out.push(hex);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| format!("escape sequence in {s:?} is not UTF-8"))
}

pub(crate) fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Error",
    }
}

/// Renders a service response to wire bytes (head + JSON body).
pub(crate) fn render_response(response: &ApiResponse, keep_alive: bool) -> Vec<u8> {
    let body = response.body.encode();
    let retry = match response.retry_after {
        Some(secs) => format!("Retry-After: {secs}\r\n"),
        None => String::new(),
    };
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{}Connection: {}\r\n\r\n",
        response.status,
        status_text(response.status),
        body.len(),
        retry,
        if keep_alive { "keep-alive" } else { "close" },
    );
    let mut out = Vec::with_capacity(head.len() + body.len());
    out.extend_from_slice(head.as_bytes());
    out.extend_from_slice(body.as_bytes());
    out
}

/// A complete one-shot response (always `Connection: close`), for paths
/// that answer without going through the service: connection-cap overload
/// and deadline shedding.
pub(crate) fn plain_response(status: u16, message: &str, retry_after: Option<u64>) -> String {
    let body = Json::obj().set("error", message).encode();
    let retry = match retry_after {
        Some(secs) => format!("Retry-After: {secs}\r\n"),
        None => String::new(),
    };
    format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{}Connection: close\r\n\r\n{}",
        status,
        status_text(status),
        body.len(),
        retry,
        body
    )
}

/// The `503 server overloaded` push-back the acceptor answers once
/// `max_connections` connections are open.
pub(crate) fn overload_response() -> String {
    plain_response(503, "server overloaded", Some(1))
}

/// The `503` an event loop answers for a request that already waited past
/// the request timeout.
pub(crate) fn shed_response() -> String {
    plain_response(503, "shed: queued past the request timeout", Some(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_parse_paths_queries_and_escapes() {
        let r =
            parse_request_line("GET /locate?x=1.5&y=2&dataset=my%20set&z=a+b HTTP/1.1").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/locate");
        assert_eq!(
            r.params,
            vec![
                ("x".to_string(), "1.5".to_string()),
                ("y".to_string(), "2".to_string()),
                ("dataset".to_string(), "my set".to_string()),
                ("z".to_string(), "a b".to_string()),
            ]
        );
        assert_eq!(parse_request_line("GET / HTTP/1.1").unwrap().params, vec![]);
    }

    #[test]
    fn rejects_bad_request_lines() {
        assert!(parse_request_line("PATCH /x HTTP/1.1").is_err());
        assert!(parse_request_line("GET").is_err());
        assert!(parse_request_line("GET /a?x=%zz HTTP/1.1").is_err());
    }

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("a%2Cb+c").unwrap(), "a,b c");
        assert_eq!(percent_decode("plain").unwrap(), "plain");
        assert!(percent_decode("%f").is_err());
        assert!(percent_decode("%ff").is_err()); // lone continuation byte
    }

    #[test]
    fn head_end_detection() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nbody"), Some(14));
        assert_eq!(find_head_end(b"partial\r\n"), None);
    }

    #[test]
    fn incremental_parse_waits_for_the_full_message() {
        let full = b"POST /solve_batch HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        for cut in 0..full.len() {
            assert!(
                matches!(try_parse(&full[..cut]), ParseOutcome::Incomplete),
                "cut at {cut} should be incomplete"
            );
        }
        match try_parse(full) {
            ParseOutcome::Ready { request, consumed } => {
                assert_eq!(consumed, full.len());
                let req = request.parsed.unwrap();
                assert_eq!(req.method, "POST");
                assert_eq!(req.path, "/solve_batch");
                assert_eq!(req.body, b"hello");
                assert!(request.keep_alive);
            }
            ParseOutcome::Incomplete => panic!("full message should parse"),
        }
    }

    #[test]
    fn pipelined_requests_consume_exactly_one_message() {
        let two = b"GET /health HTTP/1.1\r\n\r\nGET /stats HTTP/1.1\r\nConnection: close\r\n\r\n";
        let ParseOutcome::Ready { request, consumed } = try_parse(two) else {
            panic!("first message should parse");
        };
        assert_eq!(request.parsed.unwrap().path, "/health");
        assert!(request.keep_alive);
        let ParseOutcome::Ready {
            request,
            consumed: rest,
        } = try_parse(&two[consumed..])
        else {
            panic!("second message should parse");
        };
        assert_eq!(request.parsed.unwrap().path, "/stats");
        assert!(!request.keep_alive);
        assert_eq!(consumed + rest, two.len());
    }

    #[test]
    fn protocol_rejections_close_and_swallow_the_buffer() {
        // Oversized head without a terminator.
        let mut huge = b"GET / HTTP/1.1\r\nX-Filler: ".to_vec();
        huge.resize(MAX_HEAD + 2, b'a');
        let ParseOutcome::Ready { request, consumed } = try_parse(&huge) else {
            panic!("oversized head must be rejected");
        };
        assert_eq!(consumed, huge.len());
        assert_eq!(request.parsed.err().map(|e| e.status), Some(400));
        assert!(!request.keep_alive);

        // Unparseable Content-Length.
        let bad = b"POST /reload HTTP/1.1\r\nContent-Length: banana\r\n\r\n";
        let ParseOutcome::Ready { request, .. } = try_parse(bad) else {
            panic!("bad content-length must be rejected");
        };
        assert_eq!(request.parsed.err().map(|e| e.status), Some(400));

        // Declared body over the cap: 413 before the body arrives.
        let big = b"POST /reload HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n";
        let ParseOutcome::Ready { request, .. } = try_parse(big) else {
            panic!("oversized body must be rejected");
        };
        assert_eq!(request.parsed.err().map(|e| e.status), Some(413));
    }

    #[test]
    fn rendered_responses_carry_length_connection_and_retry() {
        let resp = ApiResponse {
            status: 503,
            body: Json::obj().set("error", "busy"),
            retry_after: Some(2),
        };
        let text = String::from_utf8(render_response(&resp, false)).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Retry-After: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        let body = text.split("\r\n\r\n").nth(1).unwrap();
        assert!(text.contains(&format!("Content-Length: {}\r\n", body.len())));
    }
}
