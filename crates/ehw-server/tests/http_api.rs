//! Integration suite: the job API exercised over a real socket.
//!
//! Every test binds an ephemeral port (`127.0.0.1:0`) and talks to the
//! server with a hand-rolled HTTP client — the same nothing-but-std
//! discipline as the server, so the suite also cross-checks the protocol
//! from the other side of the wire.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use ehw_image::GrayImage;
use ehw_server::json::{parse, Value};
use ehw_server::wire::encode_result;
use ehw_server::EhwServer;
use ehw_service::{EhwService, JobSpec, ServiceConfig};

// ---------------------------------------------------------------------------
// A tiny test client
// ---------------------------------------------------------------------------

struct Response {
    status: u16,
    body: String,
}

impl Response {
    fn json(&self) -> Value {
        parse(&self.body).unwrap_or_else(|e| panic!("bad JSON body: {e}\n{}", self.body))
    }
}

/// Sends one raw request and reads the whole response (the server closes
/// the connection after each exchange).
fn raw_request(addr: std::net::SocketAddr, request: &[u8]) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(request).expect("send request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8(raw).expect("response is UTF-8");
    let (head, body) = text
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("no header/body separator in: {text}"));
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .unwrap_or_else(|| panic!("no status in: {head}"));
    Response {
        status,
        body: body.to_string(),
    }
}

fn request(addr: std::net::SocketAddr, method: &str, path: &str, body: Option<&str>) -> Response {
    let payload = body.unwrap_or("");
    // This one-shot client reads to EOF, so it must opt out of keep-alive.
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        payload.len()
    );
    raw_request(addr, format!("{head}{payload}").as_bytes())
}

fn get(addr: std::net::SocketAddr, path: &str) -> Response {
    request(addr, "GET", path, None)
}

/// Polls `GET /jobs/:id` until the status leaves the pending states.
fn wait_settled(addr: std::net::SocketAddr, job_id: u64) -> Value {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let response = get(addr, &format!("/jobs/{job_id}"));
        assert_eq!(response.status, 200, "{}", response.body);
        let doc = response.json();
        let status = doc.get("status").unwrap().as_str().unwrap().to_string();
        if status != "queued" && status != "running" {
            return doc;
        }
        assert!(Instant::now() < deadline, "job {job_id} never settled");
        std::thread::sleep(Duration::from_millis(10));
    }
}

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

fn start_server(platforms: usize) -> EhwServer {
    let service = EhwService::new(ServiceConfig::new(platforms).seed(11)).expect("service starts");
    EhwServer::serve(service, "127.0.0.1:0").expect("server binds")
}

fn training_pair(size: usize) -> (GrayImage, GrayImage) {
    let input = GrayImage::from_vec(
        size,
        size,
        (0..size * size)
            .map(|i| {
                if (i / size + i % size).is_multiple_of(2) {
                    230
                } else {
                    25
                }
            })
            .collect(),
    );
    let reference = GrayImage::from_vec(
        size,
        size,
        (0..size * size)
            .map(|i| (i * 255 / (size * size)) as u8)
            .collect(),
    );
    (input, reference)
}

fn image_json(img: &GrayImage) -> String {
    let pixels: Vec<String> = img.pixels().map(|p| p.to_string()).collect();
    format!(
        "{{\"width\":{},\"height\":{},\"pixels\":[{}]}}",
        img.width(),
        img.height(),
        pixels.join(",")
    )
}

fn evolution_body(size: usize, generations: usize, seed: u64, extra: &str) -> String {
    let (input, reference) = training_pair(size);
    format!(
        "{{\"kind\":\"evolution\",\"input\":{},\"reference\":{},\
         \"generations\":{generations},\"seed\":{seed}{extra}}}",
        image_json(&input),
        image_json(&reference)
    )
}

fn submit(addr: std::net::SocketAddr, body: &str) -> u64 {
    let response = request(addr, "POST", "/jobs", Some(body));
    assert_eq!(response.status, 201, "{}", response.body);
    response.json().get("job_id").unwrap().as_u64().unwrap()
}

// ---------------------------------------------------------------------------
// The round trip: HTTP result == in-process result, byte for byte
// ---------------------------------------------------------------------------

#[test]
fn http_results_are_byte_identical_to_in_process_execution() {
    let server = start_server(1);
    let addr = server.local_addr();

    let job_id = submit(addr, &evolution_body(16, 12, 77, ""));
    let settled = wait_settled(addr, job_id);
    assert_eq!(settled.get("status").unwrap().as_str(), Some("done"));
    let http_result = settled.get("result").unwrap();

    // The same spec through an in-process service with the same shape: the
    // determinism contract says the result is a pure function of
    // (spec, seed, platform shape), so the wire encoding must match byte
    // for byte — including the derived-vs-pinned seed (pinned here).
    let service = EhwService::new(ServiceConfig::new(1).seed(11)).unwrap();
    let (input, reference) = training_pair(16);
    let spec = JobSpec::evolution(input, reference)
        .generations(12)
        .seed(77)
        .build()
        .unwrap();
    let local = service
        .submit(spec)
        .unwrap()
        .wait()
        .expect("local job resolves");
    assert_eq!(
        http_result.to_json(),
        encode_result(&local).to_json(),
        "HTTP result and in-process result diverge"
    );
}

// ---------------------------------------------------------------------------
// The acceptance flow: submit + stream events + cancel mid-run + metrics
// ---------------------------------------------------------------------------

#[test]
fn submit_stream_cancel_and_metrics_flow() {
    let server = start_server(2);
    let addr = server.local_addr();

    // A short job whose progress we stream, and a marathon we cancel.
    let short_id = submit(addr, &evolution_body(16, 8, 3, ""));
    let marathon_id = submit(addr, &evolution_body(16, 1_000_000, 4, ""));

    // Stream the short job's events: one NDJSON line per generation, the
    // stream ends (connection closes) when the job settles.
    let mut stream = TcpStream::connect(addr).expect("connect for events");
    stream
        .write_all(format!("GET /jobs/{short_id}/events HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
        .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("stream drains");
    let text = String::from_utf8(raw).unwrap();
    let (head, body) = text.split_once("\r\n\r\n").expect("stream head");
    assert!(head.contains("application/x-ndjson"), "{head}");
    let events: Vec<Value> = body
        .lines()
        .filter(|l| !l.is_empty())
        .map(|l| parse(l).expect("event line is JSON"))
        .collect();
    assert!(
        !events.is_empty(),
        "at least one progress event must stream"
    );
    for (i, event) in events.iter().enumerate() {
        assert_eq!(event.get("sequence").unwrap().as_usize(), Some(i));
        assert!(event.get("generation").is_some());
    }
    assert_eq!(events.len(), 8, "one event per generation");

    // Wait until the marathon is actually running (not just queued) so the
    // cancellation exercises the mid-run path.
    let running_deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let doc = get(addr, &format!("/jobs/{marathon_id}")).json();
        if doc.get("status").unwrap().as_str() == Some("running") {
            break;
        }
        assert!(
            Instant::now() < running_deadline,
            "marathon never started running"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let response = request(addr, "DELETE", &format!("/jobs/{marathon_id}"), None);
    assert_eq!(response.status, 202, "{}", response.body);
    assert_eq!(
        response.json().get("status").unwrap().as_str(),
        Some("cancelling")
    );

    // Cooperative cancellation settles within one generation boundary.
    let settled = wait_settled(addr, marathon_id);
    assert_eq!(settled.get("status").unwrap().as_str(), Some("cancelled"));
    let output = settled.get("result").unwrap().get("output").unwrap();
    assert_eq!(output.get("type").unwrap().as_str(), Some("cancelled"));
    assert_eq!(output.get("reason").unwrap().as_str(), Some("requested"));

    // Metrics reflect both jobs.
    let metrics = get(addr, "/metrics").json();
    let jobs = metrics.get("jobs").unwrap();
    assert_eq!(jobs.get("done").unwrap().as_u64(), Some(1));
    assert_eq!(jobs.get("cancelled").unwrap().as_u64(), Some(1));
    let service = metrics.get("service").unwrap();
    assert_eq!(service.get("submitted").unwrap().as_u64(), Some(2));
    assert_eq!(service.get("completed").unwrap().as_u64(), Some(1));
    assert_eq!(service.get("cancelled").unwrap().as_u64(), Some(1));
    let shards = metrics.get("shards").unwrap();
    assert_eq!(shards.get("alive_count").unwrap().as_usize(), Some(2));
    assert!(
        metrics
            .get("throughput")
            .unwrap()
            .get("jobs_per_sec")
            .unwrap()
            .as_f64()
            .unwrap()
            > 0.0
    );
    // The settled evolution recorded a latency sample under its kind.
    let latency = metrics.get("latency_ms").unwrap();
    assert!(
        latency
            .get("evolution")
            .unwrap()
            .get("total")
            .unwrap()
            .as_u64()
            .unwrap()
            >= 1
    );
}

#[test]
fn event_streams_send_every_event_once_in_order_and_end_at_settle() {
    let server = start_server(1);
    let addr = server.local_addr();

    // Opened while the job runs: its events arrive in batches.
    let job_id = submit(addr, &evolution_body(16, 2_000, 5, ""));
    let mut stream = TcpStream::connect(addr).expect("connect for events");
    stream
        .write_all(format!("GET /jobs/{job_id}/events HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
        .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("stream drains");
    // The stream ends at the settle, so the status already reads done.
    let doc = get(addr, &format!("/jobs/{job_id}")).json();
    assert_eq!(doc.get("status").unwrap().as_str(), Some("done"));

    let text = String::from_utf8(raw).unwrap();
    let (head, body) = text.split_once("\r\n\r\n").expect("stream head");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(head.contains("application/x-ndjson"), "{head}");
    let sequences: Vec<usize> = body
        .lines()
        .map(|line| {
            let event = parse(line).expect("event line is JSON");
            let sequence = event.get("sequence").unwrap().as_usize().unwrap();
            assert_eq!(event.get("generation").unwrap().as_usize(), Some(sequence));
            sequence
        })
        .collect();
    assert_eq!(sequences, (0..2_000).collect::<Vec<_>>());
}

#[test]
fn a_late_reader_gets_the_whole_feed_and_it_agrees_with_the_result() {
    let server = start_server(1);
    let addr = server.local_addr();

    // Opened only after the settle: the retained feed must still be whole.
    let job_id = submit(addr, &evolution_body(16, 2_000, 5, ""));
    let doc = wait_settled(addr, job_id);
    assert_eq!(doc.get("status").unwrap().as_str(), Some("done"));
    let history: Vec<u64> = doc
        .get("result")
        .and_then(|result| result.get("output"))
        .and_then(|output| output.get("history"))
        .and_then(Value::as_array)
        .expect("an evolution result carries its history")
        .iter()
        .map(|fitness| fitness.as_u64().unwrap())
        .collect();

    let events = get(addr, &format!("/jobs/{job_id}/events"));
    assert_eq!(events.status, 200, "{}", events.body);
    let (sequences, best_fitness): (Vec<usize>, Vec<u64>) = events
        .body
        .lines()
        .map(|line| {
            let event = parse(line).expect("event line is JSON");
            let sequence = event.get("sequence").unwrap().as_usize().unwrap();
            assert_eq!(event.get("generation").unwrap().as_usize(), Some(sequence));
            (
                sequence,
                event.get("best_fitness").unwrap().as_u64().unwrap(),
            )
        })
        .unzip();
    assert_eq!(sequences, (0..2_000).collect::<Vec<_>>());
    assert_eq!(best_fitness, history);
}

#[test]
fn cancel_before_start_settles_with_zero_evaluations() {
    // One shard: a marathon occupies it while the victim waits in queue.
    let server = start_server(1);
    let addr = server.local_addr();

    let blocker_id = submit(addr, &evolution_body(16, 1_000_000, 5, ""));
    let victim_id = submit(addr, &evolution_body(16, 50, 6, ""));

    // Cancel the queued victim before any shard picks it up, then release
    // the blocker.
    let response = request(addr, "DELETE", &format!("/jobs/{victim_id}"), None);
    assert_eq!(response.status, 202);
    let response = request(addr, "DELETE", &format!("/jobs/{blocker_id}"), None);
    assert_eq!(response.status, 202);

    let victim = wait_settled(addr, victim_id);
    assert_eq!(victim.get("status").unwrap().as_str(), Some("cancelled"));
    let result = victim.get("result").unwrap();
    assert_eq!(result.get("evaluations").unwrap().as_u64(), Some(0));
    wait_settled(addr, blocker_id);
}

#[test]
fn an_expired_deadline_cancels_over_the_wire() {
    let server = start_server(1);
    let addr = server.local_addr();

    let job_id = submit(
        addr,
        &evolution_body(16, 1_000_000, 9, ",\"deadline_ms\":60"),
    );
    let settled = wait_settled(addr, job_id);
    assert_eq!(settled.get("status").unwrap().as_str(), Some("cancelled"));
    let output = settled.get("result").unwrap().get("output").unwrap();
    assert_eq!(
        output.get("reason").unwrap().as_str(),
        Some("deadline_expired")
    );
}

// ---------------------------------------------------------------------------
// Protocol robustness
// ---------------------------------------------------------------------------

#[test]
fn malformed_requests_get_400s_not_crashes() {
    let server = start_server(1);
    let addr = server.local_addr();

    // A broken request line.
    let response = raw_request(addr, b"NOT-EVEN-HTTP\r\n\r\n");
    assert_eq!(response.status, 400);

    // A header line with no colon.
    let response = raw_request(addr, b"GET /metrics HTTP/1.1\r\nbroken header\r\n\r\n");
    assert_eq!(response.status, 400);

    // A body that is not JSON.
    let response = request(addr, "POST", "/jobs", Some("this is not json"));
    assert_eq!(response.status, 400);
    assert!(response.json().get("error").is_some());

    // JSON that is not a valid spec.
    let response = request(addr, "POST", "/jobs", Some("{\"kind\":\"evolution\"}"));
    assert_eq!(response.status, 400);

    // A spec the builder rejects (offspring = 0).
    let body = {
        let (input, reference) = training_pair(4);
        format!(
            "{{\"kind\":\"evolution\",\"input\":{},\"reference\":{},\"offspring\":0}}",
            image_json(&input),
            image_json(&reference)
        )
    };
    let response = request(addr, "POST", "/jobs", Some(&body));
    assert_eq!(response.status, 400);
    assert!(response.body.contains("invalid spec"), "{}", response.body);

    // Unknown endpoints and wrong methods.
    assert_eq!(get(addr, "/nope").status, 404);
    assert_eq!(get(addr, "/jobs/999999").status, 404);
    assert_eq!(request(addr, "PUT", "/jobs", Some("{}")).status, 405);

    // The server is still healthy afterwards.
    assert_eq!(get(addr, "/metrics").status, 200);
}

#[test]
fn deeply_nested_bodies_get_a_400_and_the_server_keeps_serving() {
    let server = start_server(1);
    let addr = server.local_addr();

    // Far past the parser's depth cap: before the cap this overflowed the
    // connection thread's stack and aborted the whole process.
    let body = "[".repeat(200_000);
    let response = request(addr, "POST", "/jobs", Some(&body));
    assert_eq!(response.status, 400);
    let error = response.json();
    let message = error.get("error").and_then(Value::as_str).unwrap();
    assert!(message.contains("nesting"), "{message}");

    // A fresh connection still gets answered.
    assert_eq!(get(addr, "/metrics").status, 200);
}

#[test]
fn pgm_bodies_announcing_huge_rasters_get_a_400_and_the_server_keeps_serving() {
    let server = start_server(1);
    let addr = server.local_addr();

    // A 29-byte ASCII PGM announcing 10^12 pixels: before the decoder
    // bounded its reservation by the bytes present, this asked for a 1 TB
    // buffer and aborted the whole process.
    let pgm = ehw_server::base64::encode(b"P2 1000000 1000000 255\n1 2 3");
    let image = format!("{{\"pgm_base64\":\"{pgm}\"}}");
    let body = format!("{{\"kind\":\"evolution\",\"input\":{image},\"reference\":{image}}}");
    let response = request(addr, "POST", "/jobs", Some(&body));
    assert_eq!(response.status, 400, "{}", response.body);

    // A fresh connection still gets answered.
    assert_eq!(get(addr, "/metrics").status, 200);
}

#[test]
fn stream_specs_announcing_huge_frames_get_a_400_and_the_server_keeps_serving() {
    let server = start_server(1);
    let addr = server.local_addr();

    // A 10^12-pixel synthetic frame: before the stream spec was bounded,
    // this passed validation and the shard's frame allocation aborted the
    // whole process.
    let body = "{\"source\":{\"type\":\"synthetic\",\"scene\":\"shapes\",\"complexity\":4,\
                \"width\":1000000,\"height\":1000000,\"frames\":1000000000,\
                \"schedule\":[{\"start_frame\":0,\
                  \"noise\":{\"model\":\"salt_pepper\",\"density\":0.1}}]},\
                \"generations\":6,\"seed\":1}";
    let response = request(addr, "POST", "/streams", Some(body));
    assert_eq!(response.status, 400, "{}", response.body);
    assert!(response.body.contains("maximum"), "{}", response.body);

    // A fresh connection still gets answered.
    assert_eq!(get(addr, "/metrics").status, 200);
}

#[test]
fn huge_mutation_rates_get_a_400_and_the_server_keeps_serving() {
    let server = start_server(1);
    let addr = server.local_addr();

    // Mutation draws one gene per unit of rate: before the rate was capped
    // at the gene count, a 10^12 rate passed validation and held the shard
    // for good, so the job never settled.
    for rate in ["1000000000000", "18446744073709551615"] {
        let extra = format!(",\"mutation_rate\":{rate}");
        let response = request(
            addr,
            "POST",
            "/jobs",
            Some(&evolution_body(8, 2, 1, &extra)),
        );
        assert_eq!(response.status, 400, "{}", response.body);
        assert!(response.body.contains("mutation rate"), "{}", response.body);

        let stream = format!(
            "{},\"mutation_rate\":{rate}}}",
            stream_body(1).strip_suffix('}').unwrap()
        );
        let response = request(addr, "POST", "/streams", Some(&stream));
        assert_eq!(response.status, 400, "{}", response.body);
    }

    // The shard is still free: a well-formed job runs and settles.
    let job_id = submit(addr, &evolution_body(8, 2, 1, ",\"mutation_rate\":25"));
    let doc = wait_settled(addr, job_id);
    assert_eq!(doc.get("status").unwrap().as_str(), Some("done"));
}

#[test]
fn huge_budgets_get_a_400_and_the_server_keeps_serving() {
    let server = start_server(1);
    let addr = server.local_addr();
    let (input, reference) = training_pair(4);
    let pair = format!(
        "\"input\":{},\"reference\":{}",
        image_json(&input),
        image_json(&reference)
    );

    // Before λ and the total work were capped, a 10^12 λ passed validation
    // and the shard's offspring allocation aborted the whole process, and a
    // 10^12 generation budget held the shard for good.
    let fields = [
        ("evolution", "offspring", "MAX_OFFSPRING"),
        ("evolution", "generations", "MAX_JOB_WORK"),
        ("cascade", "offspring", "MAX_OFFSPRING"),
        ("cascade", "generations", "MAX_JOB_WORK"),
        ("fault_campaign", "recovery_offspring", "MAX_OFFSPRING"),
        ("fault_campaign", "recovery_generations", "MAX_JOB_WORK"),
    ];
    for huge in ["1000000000000", "18446744073709551615"] {
        for (kind, field, cap) in fields {
            let body = format!("{{\"kind\":\"{kind}\",{pair},\"{field}\":{huge},\"seed\":1}}");
            let response = request(addr, "POST", "/jobs", Some(&body));
            assert_eq!(response.status, 400, "{kind} {field}: {}", response.body);
            assert!(response.body.contains(cap), "{}", response.body);
        }
        for (member, cap) in [
            ("\"generations\":6", "MAX_JOB_WORK"),
            ("\"frames\":10", "maximum"),
        ] {
            let field = member.split(':').next().unwrap();
            let body = stream_body(1).replace(member, &format!("{field}:{huge}"));
            let response = request(addr, "POST", "/streams", Some(&body));
            assert_eq!(response.status, 400, "stream {field}: {}", response.body);
            assert!(response.body.contains(cap), "{}", response.body);
        }
        let body = format!(
            "{},\"offspring\":{huge}}}",
            stream_body(1).strip_suffix('}').unwrap()
        );
        let response = request(addr, "POST", "/streams", Some(&body));
        assert_eq!(response.status, 400, "stream offspring: {}", response.body);
        assert!(response.body.contains("MAX_OFFSPRING"), "{}", response.body);
    }

    // The shard is still free: a well-formed job runs and settles.
    let job_id = submit(addr, &evolution_body(8, 2, 1, ""));
    let doc = wait_settled(addr, job_id);
    assert_eq!(doc.get("status").unwrap().as_str(), Some("done"));
}

#[test]
fn oversized_bodies_get_413() {
    let server = start_server(1);
    let addr = server.local_addr();

    // Claim a body bigger than the cap; the server must refuse from the
    // header alone, without buffering anything.
    let head = format!(
        "POST /jobs HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
        ehw_server::http::MAX_BODY_BYTES + 1
    );
    let response = raw_request(addr, head.as_bytes());
    assert_eq!(response.status, 413);
    assert!(response.body.contains("exceeds"), "{}", response.body);
}

#[test]
fn header_floods_get_400_and_the_server_keeps_serving() {
    let server = start_server(1);
    let addr = server.local_addr();

    let mut flood = b"GET /metrics HTTP/1.1\r\nHost: t\r\n".to_vec();
    for i in 0..10_000 {
        flood.extend_from_slice(format!("X-Flood-{i}: x\r\n").as_bytes());
    }
    flood.extend_from_slice(b"\r\n");
    let mut stream = TcpStream::connect(addr).expect("connect");
    // A server that accepted the flood would keep the connection alive;
    // the timeout turns that into a failed assertion instead of a hang.
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set read timeout");
    let mut writer = stream.try_clone().expect("clone the socket");
    // The server answers as soon as the header cap is passed and closes the
    // connection while the flood is still arriving, so the send may fail:
    // write from a side thread and keep whatever the server sent back.
    let sender = std::thread::spawn(move || {
        let _ = writer.write_all(&flood);
    });
    let mut raw = Vec::new();
    let _ = stream.read_to_end(&mut raw);
    sender.join().expect("sender thread");
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 400 "), "{text}");
    assert!(text.contains("header lines"), "{text}");

    // A fresh connection still gets answered.
    assert_eq!(get(addr, "/metrics").status, 200);
}

#[test]
fn metrics_reflect_a_failed_job() {
    // Wire specs go through the validating builders, so a failure has to be
    // provoked below the builder layer: the doomed spec helper builds a spec
    // whose execution panics (offspring = 0 smuggled past validation).
    let service = EhwService::new(ServiceConfig::new(1).seed(11)).unwrap();
    let (input, reference) = training_pair(8);
    let handle = service
        .submit(ehw_platform::jobs::doomed_spec_for_test((input, reference)))
        .unwrap();
    let result = handle.wait().expect("failed jobs still resolve");
    assert!(result.is_failed());

    // The server wraps the *same* service instance and reports its counters.
    let server = EhwServer::serve(service, "127.0.0.1:0").expect("server binds");
    let addr = server.local_addr();
    let metrics = get(addr, "/metrics").json();
    let counters = metrics.get("service").unwrap();
    assert_eq!(counters.get("failed").unwrap().as_u64(), Some(1));
    assert_eq!(counters.get("completed").unwrap().as_u64(), Some(0));

    // And a failed job submitted over the wire reports status "failed" too:
    // reuse the events endpoint's registry by submitting a short job that
    // succeeds, proving per-state counts distinguish the two.
    let job_id = submit(addr, &evolution_body(8, 3, 2, ""));
    let settled = wait_settled(addr, job_id);
    assert_eq!(settled.get("status").unwrap().as_str(), Some("done"));
    let metrics = get(addr, "/metrics").json();
    assert_eq!(
        metrics
            .get("service")
            .unwrap()
            .get("failed")
            .unwrap()
            .as_u64(),
        Some(1)
    );
    assert_eq!(
        metrics
            .get("service")
            .unwrap()
            .get("completed")
            .unwrap()
            .as_u64(),
        Some(1)
    );
    assert_eq!(
        metrics.get("jobs").unwrap().get("done").unwrap().as_u64(),
        Some(1)
    );
}

#[test]
fn priority_and_seed_survive_the_wire() {
    let server = start_server(1);
    let addr = server.local_addr();

    // Full-range u64 seed: would corrupt silently if the codec went through
    // f64 anywhere.
    let seed = u64::MAX - 17;
    let body = evolution_body(8, 3, seed, ",\"priority\":\"high\"");
    let response = request(addr, "POST", "/jobs", Some(&body));
    assert_eq!(response.status, 201);
    let doc = response.json();
    assert_eq!(doc.get("seed").unwrap().as_u64(), Some(seed));
    let job_id = doc.get("job_id").unwrap().as_u64().unwrap();
    let settled = wait_settled(addr, job_id);
    assert_eq!(
        settled.get("result").unwrap().get("seed").unwrap().as_u64(),
        Some(seed)
    );
}

#[test]
fn events_for_unknown_jobs_are_404() {
    let server = start_server(1);
    let addr = server.local_addr();
    assert_eq!(get(addr, "/jobs/424242/events").status, 404);
}

// ---------------------------------------------------------------------------
// TTL eviction and Prometheus exposition over the wire
// ---------------------------------------------------------------------------

#[test]
fn settled_jobs_are_evicted_after_the_ttl() {
    use ehw_service::ScenarioRegistry;

    let service = EhwService::new(ServiceConfig::new(1).seed(11)).expect("service starts");
    let server = EhwServer::serve_with(
        service,
        "127.0.0.1:0",
        Duration::from_millis(50),
        ScenarioRegistry::builtin(),
    )
    .expect("server binds");
    let addr = server.local_addr();

    let job_id = submit(addr, &evolution_body(8, 3, 21, ""));
    let settled = wait_settled(addr, job_id);
    assert_eq!(settled.get("status").unwrap().as_str(), Some("done"));

    // The reaper sweeps at TTL/4 cadence; well within a couple of seconds
    // the settled job must read as 404 and the eviction must be counted.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if get(addr, &format!("/jobs/{job_id}")).status == 404 {
            break;
        }
        assert!(Instant::now() < deadline, "settled job never evicted");
        std::thread::sleep(Duration::from_millis(20));
    }
    let retention = get(addr, "/metrics").json();
    let retention = retention.get("retention").unwrap();
    assert!(retention.get("jobs_evicted").unwrap().as_u64().unwrap() >= 1);
    // Eviction forgets the result; the service-level completion counter is
    // untouched.
    let metrics = get(addr, "/metrics").json();
    assert_eq!(
        metrics
            .get("service")
            .unwrap()
            .get("completed")
            .unwrap()
            .as_u64(),
        Some(1)
    );
    // The per-state count is the lifetime count less the evictions, so the
    // evicted job no longer counts as retained.
    assert_eq!(
        metrics.get("jobs").unwrap().get("done").unwrap().as_u64(),
        Some(0)
    );
}

#[test]
fn latency_is_stamped_at_settle_not_at_the_first_read() {
    let server = start_server(1);
    let addr = server.local_addr();
    let job_id = submit(addr, &evolution_body(8, 2, 41, ""));

    // The event stream ends when the job settles; nothing reads its status.
    let mut stream = TcpStream::connect(addr).expect("connect for events");
    stream
        .write_all(format!("GET /jobs/{job_id}/events HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
        .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("stream drains");

    // Read the metrics long after the settle: the sample must still measure
    // submit to settle, not submit to this read.
    std::thread::sleep(Duration::from_millis(600));
    let metrics = get(addr, "/metrics").json();
    let histogram = metrics.get("latency_ms").unwrap().get("evolution").unwrap();
    assert_eq!(histogram.get("total").unwrap().as_u64(), Some(1));
    let bounds = histogram.get("bounds_ms").unwrap().as_array().unwrap();
    let counts = histogram.get("counts").unwrap().as_array().unwrap();
    let bucket = counts
        .iter()
        .position(|count| count.as_u64() == Some(1))
        .expect("one sample");
    let bound = bounds.get(bucket).and_then(Value::as_u64);
    assert!(
        bound.is_some_and(|ms| ms <= 256),
        "the sample landed in bucket {bucket} (bound {bound:?} ms), after the settle"
    );
}

#[test]
fn metrics_speak_prometheus_when_asked() {
    let server = start_server(1);
    let addr = server.local_addr();
    let job_id = submit(addr, &evolution_body(8, 3, 31, ""));
    wait_settled(addr, job_id);

    // Via the query string.
    let response = get(addr, "/metrics?format=prometheus");
    assert_eq!(response.status, 200);
    for needle in [
        "# TYPE ehw_jobs_submitted_total counter",
        "ehw_jobs_submitted_total 1",
        "ehw_jobs_completed_total 1",
        "ehw_jobs{state=\"done\"} 1",
        "# TYPE ehw_cache_windows_hits_total counter",
        "ehw_jobs_evicted_total 0",
        "ehw_shards_alive 1",
    ] {
        assert!(
            response.body.contains(needle),
            "missing {needle:?} in:\n{}",
            response.body
        );
    }
    // The cross-job cache has no fitness tier, so it exports no series.
    assert!(
        !response.body.contains("ehw_cache_fitness_"),
        "{}",
        response.body
    );

    // Via the Accept header.
    let raw = "GET /metrics HTTP/1.1\r\nHost: t\r\nAccept: text/plain\r\nConnection: close\r\n\r\n";
    let response = raw_request(addr, raw.as_bytes());
    assert_eq!(response.status, 200);
    assert!(response.body.contains("ehw_uptime_seconds"));

    // Plain GET still speaks JSON, including the cache section.
    let metrics = get(addr, "/metrics").json();
    let cache = metrics.get("cache").unwrap();
    // The two fitness counters stay on the wire for existing readers, at 0.
    assert_eq!(cache.get("fitness_hits").unwrap().as_u64(), Some(0));
    assert_eq!(cache.get("fitness_misses").unwrap().as_u64(), Some(0));
    for removed in [
        "fitness_insertions",
        "fitness_evictions",
        "fitness_hit_rate",
    ] {
        assert!(cache.get(removed).is_none(), "{removed} is still reported");
    }
}

// ---------------------------------------------------------------------------
// Fault scenarios, recovery policies and the registry over the wire
// ---------------------------------------------------------------------------

fn pgm_image_json(img: &GrayImage) -> String {
    let pgm = ehw_server::base64::encode(&ehw_image::pgm::encode_p5(img));
    format!("{{\"pgm_base64\":\"{pgm}\"}}")
}

fn campaign_body(size: usize, seed: u64, scenario: &str, policy: &str) -> String {
    let (input, reference) = training_pair(size);
    format!(
        "{{\"kind\":\"fault_campaign\",\"input\":{},\"reference\":{},\
         \"arrays\":[0],\"num_arrays\":1,\"recovery_generations\":1,\
         \"scenario\":\"{scenario}\",\"policy\":\"{policy}\",\"seed\":{seed}}}",
        pgm_image_json(&input),
        pgm_image_json(&reference)
    )
}

#[test]
fn the_registry_endpoint_lists_scenarios_and_policies() {
    let server = start_server(1);
    let addr = server.local_addr();

    let response = get(addr, "/registry");
    assert_eq!(response.status, 200, "{}", response.body);
    let doc = response.json();
    let names = |section: &str| -> Vec<String> {
        doc.get(section)
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|e| e.get("name").unwrap().as_str().unwrap().to_string())
            .collect()
    };
    let scenarios = names("scenarios");
    for expected in [
        "single_sweep",
        "multi_pe_2",
        "correlated_row",
        "correlated_col",
        "correlated_neighborhood",
        "burst",
        "permanent_lpd",
        "rate_sweep",
        "storm",
    ] {
        assert!(
            scenarios.iter().any(|n| n == expected),
            "missing {expected}"
        );
    }
    let policies = names("policies");
    for expected in ["reevolve", "scrub_then_reevolve", "full_ladder"] {
        assert!(policies.iter().any(|n| n == expected), "missing {expected}");
    }

    // The registry is read-only: writes are method errors, not 404s.
    assert_eq!(request(addr, "POST", "/registry", Some("{}")).status, 405);
}

#[test]
fn base64_pgm_bodies_match_pixel_arrays_and_shrink_the_payload() {
    let server = start_server(1);
    let addr = server.local_addr();
    let (input, reference) = training_pair(16);

    // Same spec, two image transports: results must be byte-identical.
    let json_body = evolution_body(16, 5, 61, "");
    let pgm_body = format!(
        "{{\"kind\":\"evolution\",\"input\":{},\"reference\":{},\
         \"generations\":5,\"seed\":61}}",
        pgm_image_json(&input),
        pgm_image_json(&reference)
    );
    // ~2.4x here (3-digit pixels approach 3x); anything under 2x would mean
    // the compact transport regressed.
    assert!(
        json_body.len() as f64 / pgm_body.len() as f64 > 2.0,
        "base64 PGM transport should shrink the body: {} vs {}",
        json_body.len(),
        pgm_body.len()
    );

    let from_json = wait_settled(addr, submit(addr, &json_body));
    let from_pgm = wait_settled(addr, submit(addr, &pgm_body));
    // Everything but the job id (output, seed, evaluation counters) must be
    // identical: the image transport cannot leak into execution.
    assert_eq!(
        from_json
            .get("result")
            .unwrap()
            .get("output")
            .unwrap()
            .to_json(),
        from_pgm
            .get("result")
            .unwrap()
            .get("output")
            .unwrap()
            .to_json(),
        "image transport leaked into the result"
    );
    assert_eq!(
        from_json
            .get("result")
            .unwrap()
            .get("evaluations")
            .unwrap()
            .to_json(),
        from_pgm
            .get("result")
            .unwrap()
            .get("evaluations")
            .unwrap()
            .to_json()
    );
}

#[test]
fn scenario_campaigns_fold_into_one_resilience_report_over_http() {
    use ehw_server::wire::decode_campaign_report;
    use ehw_service::ResilienceReport;

    let server = start_server(2);
    let addr = server.local_addr();

    // Four scenario kinds crossed with two recovery ladders, all named via
    // the registry, all submitted over plain HTTP.
    let scenarios = ["single_sweep", "multi_pe_2", "correlated_row", "burst"];
    let policies = ["reevolve", "scrub_then_reevolve"];
    let jobs: Vec<(u64, &str, &str)> = scenarios
        .iter()
        .flat_map(|&scenario| {
            policies.iter().map(move |&policy| {
                let body = campaign_body(8, 1000, scenario, policy);
                (submit(addr, &body), scenario, policy)
            })
        })
        .collect();

    let mut resilience = ResilienceReport::default();
    for (job_id, scenario, _policy) in &jobs {
        let settled = wait_settled(addr, *job_id);
        assert_eq!(
            settled.get("status").unwrap().as_str(),
            Some("done"),
            "{scenario}: {}",
            settled.to_json()
        );
        let output = settled.get("result").unwrap().get("output").unwrap();
        let report = decode_campaign_report(output).expect("campaign output decodes");
        assert_eq!(&report.scenario, scenario);
        resilience.push_campaign(&report);
    }

    assert_eq!(resilience.len(), scenarios.len() * policies.len());
    for (entry, (_, scenario, _)) in resilience.entries.iter().zip(&jobs) {
        assert_eq!(&entry.scenario, scenario);
        assert!(entry.events > 0, "{scenario} produced no events");
        assert!(entry.evaluations >= 2 * entry.events as u64);
    }
    // The two ladders genuinely differ on the same scenario: the scrub-first
    // ladder heals transient faults without paying for evolution.
    let by_policy = |policy: &str| {
        resilience
            .entries
            .iter()
            .zip(&jobs)
            .filter(|(_, (_, _, p))| *p == policy)
            .map(|(entry, _)| entry.evaluations)
            .sum::<u64>()
    };
    assert!(
        by_policy("scrub_then_reevolve") < by_policy("reevolve"),
        "the scrub ladder should cost fewer evaluations than reevolve-only"
    );
}

// ---------------------------------------------------------------------------
// Keep-alive: one socket, many requests
// ---------------------------------------------------------------------------

/// Reads exactly one framed response off a reused connection: the status
/// line and headers, then `Content-Length` bytes of body.
fn read_one_response(reader: &mut impl std::io::BufRead) -> (u16, String, String) {
    let mut head = String::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        if line == "\r\n" || line == "\n" || line.is_empty() {
            break;
        }
        head.push_str(&line);
    }
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .unwrap_or_else(|| panic!("no status in: {head}"));
    let content_length = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or_else(|| panic!("no Content-Length in: {head}"));
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    (status, head, String::from_utf8(body).expect("UTF-8 body"))
}

#[test]
fn one_socket_serves_many_requests_until_asked_to_close() {
    let server = start_server(1);
    let addr = server.local_addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));

    // Several GETs and a POST, all down the same socket.
    for _ in 0..3 {
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let (status, head, body) = read_one_response(&mut reader);
        assert_eq!(status, 200, "{body}");
        assert!(head.contains("Connection: keep-alive"), "{head}");
        parse(&body).expect("metrics stay JSON over a reused socket");
    }
    let spec = evolution_body(8, 3, 71, "");
    stream
        .write_all(
            format!(
                "POST /jobs HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{spec}",
                spec.len()
            )
            .as_bytes(),
        )
        .unwrap();
    let (status, head, body) = read_one_response(&mut reader);
    assert_eq!(status, 201, "{body}");
    assert!(head.contains("Connection: keep-alive"), "{head}");
    let job_id = parse(&body)
        .unwrap()
        .get("job_id")
        .unwrap()
        .as_u64()
        .unwrap();
    wait_settled(addr, job_id);

    // An explicit `Connection: close` is honoured: the response announces it
    // and the server ends the session.
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .unwrap();
    let (status, head, _) = read_one_response(&mut reader);
    assert_eq!(status, 200);
    assert!(head.contains("Connection: close"), "{head}");
    let mut probe = [0u8; 1];
    assert_eq!(
        std::io::Read::read(&mut reader, &mut probe).expect("clean EOF"),
        0,
        "server must close after Connection: close"
    );
}

#[test]
fn keep_alive_round_trips_do_not_wait_for_delayed_acks() {
    let server = start_server(1);
    let addr = server.local_addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
    // A response whose head and body leave in separate writes waits ~40 ms
    // for the client's delayed ACK on a reused connection, so 40 round trips
    // would take well over a second.
    let started = Instant::now();
    for _ in 0..40 {
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let (status, _, body) = read_one_response(&mut reader);
        assert_eq!(status, 200, "{body}");
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "40 keep-alive round trips took {elapsed:?}"
    );
}

#[test]
fn the_per_connection_request_budget_is_bounded() {
    let server = start_server(1);
    let addr = server.local_addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
    // The budget'th request is served with `Connection: close`; the socket
    // dies afterwards, so a greedy client cannot pin a handler thread.
    let budget = ehw_server::http::MAX_REQUESTS_PER_CONNECTION;
    for served in 1..=budget {
        stream
            .write_all(b"GET /registry HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let (status, head, _) = read_one_response(&mut reader);
        assert_eq!(status, 200);
        let expected = if served == budget {
            "Connection: close"
        } else {
            "Connection: keep-alive"
        };
        assert!(head.contains(expected), "request {served}: {head}");
    }
    let mut probe = [0u8; 1];
    assert_eq!(std::io::Read::read(&mut reader, &mut probe).unwrap(), 0);
}

// ---------------------------------------------------------------------------
// Streaming jobs over the wire
// ---------------------------------------------------------------------------

fn stream_body(seed: u64) -> String {
    format!(
        "{{\"source\":{{\"type\":\"synthetic\",\"scene\":\"shapes\",\"complexity\":4,\
          \"width\":16,\"height\":16,\"frames\":10,\
          \"schedule\":[\
            {{\"start_frame\":0,\"noise\":{{\"model\":\"salt_pepper\",\"density\":0.1}}}},\
            {{\"start_frame\":6,\"noise\":{{\"model\":\"salt_pepper\",\"density\":0.5}}}}]}},\
         \"drift_window\":3,\"drift_threshold_pct\":140,\"generations\":6,\"seed\":{seed}}}"
    )
}

#[test]
fn streams_submit_through_their_own_endpoint_and_settle_with_a_report() {
    let server = start_server(1);
    let addr = server.local_addr();

    // `POST /streams` defaults the kind; a conflicting kind is refused.
    let response = request(addr, "POST", "/streams", Some(&stream_body(7)));
    assert_eq!(response.status, 201, "{}", response.body);
    let doc = response.json();
    assert_eq!(doc.get("kind").unwrap().as_str(), Some("stream"));
    let job_id = doc.get("job_id").unwrap().as_u64().unwrap();

    let wrong_kind = format!(
        "{{\"kind\":\"evolution\",{}",
        stream_body(7).strip_prefix('{').unwrap()
    );
    let response = request(addr, "POST", "/streams", Some(&wrong_kind));
    assert_eq!(response.status, 400, "{}", response.body);
    assert!(
        response.body.contains("\\\"stream\\\" specs"),
        "{}",
        response.body
    );

    // Events carry the per-frame stream phases.
    let mut stream = TcpStream::connect(addr).expect("connect for events");
    stream
        .write_all(format!("GET /jobs/{job_id}/events HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
        .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("stream drains");
    let text = String::from_utf8(raw).unwrap();
    let (_, events_body) = text.split_once("\r\n\r\n").expect("stream head");
    let events: Vec<Value> = events_body
        .lines()
        .filter(|l| !l.is_empty())
        .map(|l| parse(l).expect("event line is JSON"))
        .collect();
    let frame_phases = events
        .iter()
        .filter(|e| {
            e.get("stream")
                .and_then(|s| s.get("phase"))
                .and_then(Value::as_str)
                == Some("frame")
        })
        .count();
    assert_eq!(frame_phases, 10, "one frame phase per frame");

    // The settled result is the stream report.
    let settled = wait_settled(addr, job_id);
    assert_eq!(settled.get("status").unwrap().as_str(), Some("done"));
    let output = settled.get("result").unwrap().get("output").unwrap();
    assert_eq!(output.get("type").unwrap().as_str(), Some("stream"));
    assert_eq!(output.get("frames").unwrap().as_usize(), Some(10));
    let hash = output.get("output_hash").unwrap().as_str().unwrap();
    assert_eq!(hash.len(), 16);
    assert!(u64::from_str_radix(hash, 16).is_ok());

    // Same spec, same seed: byte-identical report over the wire.
    let again = submit_stream(addr, &stream_body(7));
    let settled_again = wait_settled(addr, again);
    assert_eq!(
        settled_again
            .get("result")
            .unwrap()
            .get("output")
            .unwrap()
            .to_json(),
        output.to_json(),
        "stream results must be a pure function of spec and seed"
    );
}

fn submit_stream(addr: std::net::SocketAddr, body: &str) -> u64 {
    let response = request(addr, "POST", "/streams", Some(body));
    assert_eq!(response.status, 201, "{}", response.body);
    response.json().get("job_id").unwrap().as_u64().unwrap()
}

// ---------------------------------------------------------------------------
// Every result is a pure function of (spec, seed)
// ---------------------------------------------------------------------------

/// A spec member that no job kind reads any more; the decoder ignores it
/// like every other unknown member.
const RETIRED_MEMBER: &str = ",\"warm_start\":true";

#[test]
fn resubmitted_jobs_on_a_cached_server_match_in_process_execution() {
    use ehw_platform::jobs::execute;
    use ehw_platform::platform::EhwPlatform;
    use ehw_server::wire::decode_spec_with;
    use ehw_service::{JobResult, ScenarioRegistry};

    // The cross-job cache is on by default.
    let server = start_server(1);
    let addr = server.local_addr();
    let stream = format!(
        "{{\"kind\":\"stream\",{}{RETIRED_MEMBER}}}",
        stream_body(9)
            .strip_prefix('{')
            .and_then(|body| body.strip_suffix('}'))
            .unwrap()
    );
    for (path, body) in [
        ("/jobs", evolution_body(16, 6, 41, RETIRED_MEMBER)),
        ("/streams", stream),
    ] {
        let (spec, _) =
            decode_spec_with(&parse(&body).unwrap(), &ScenarioRegistry::builtin()).unwrap();
        let seed = spec.seed().expect("the body pins a seed");
        let local = execute(&mut EhwPlatform::new(spec.arrays_needed()), &spec, seed);
        // Twice on one server: the second job must not see the first.
        for _ in 0..2 {
            let response = request(addr, "POST", path, Some(&body));
            assert_eq!(response.status, 201, "{}", response.body);
            let job_id = response.json().get("job_id").unwrap().as_u64().unwrap();
            let settled = wait_settled(addr, job_id);
            assert_eq!(settled.get("status").unwrap().as_str(), Some("done"));
            let expected = JobResult {
                job_id,
                ..local.clone()
            };
            assert_eq!(
                settled.get("result").unwrap().to_json(),
                encode_result(&expected).to_json(),
                "{path} job {job_id} is not a pure function of its spec and seed"
            );
        }
    }
}

#[test]
fn unknown_scenario_and_policy_names_get_structured_400s() {
    let server = start_server(1);
    let addr = server.local_addr();

    for (scenario, policy, needle) in [
        ("meteor", "reevolve", "unknown fault scenario 'meteor'"),
        ("burst", "prayer", "unknown recovery policy 'prayer'"),
    ] {
        let response = request(
            addr,
            "POST",
            "/jobs",
            Some(&campaign_body(8, 5, scenario, policy)),
        );
        assert_eq!(response.status, 400, "{}", response.body);
        let error = response.json();
        let message = error.get("error").unwrap().as_str().unwrap().to_string();
        assert!(message.contains(needle), "{message}");
        assert!(message.contains("/registry"), "{message}");
    }

    // The server is still healthy afterwards.
    assert_eq!(get(addr, "/metrics").status, 200);
}

/// Runs `ehw-serve` with `args` and returns its exit code and stderr; a
/// server that is still up after 30 s is killed and reported as booted.
fn ehw_serve_exit(args: &[String]) -> (Option<i32>, String) {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_ehw-serve"))
        .args(args)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("ehw-serve starts");
    // A server that accepted its arguments would serve until killed.
    let deadline = Instant::now() + Duration::from_secs(30);
    while child.try_wait().expect("poll ehw-serve").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("ehw-serve booted on {args:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let output = child.wait_with_output().expect("collect ehw-serve");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn ehw_serve_refuses_to_boot_on_a_registry_that_is_not_an_object() {
    let path = std::env::temp_dir().join(format!("ehw-registry-array-{}.json", std::process::id()));
    std::fs::write(&path, b"[]").unwrap();
    let (code, _) = ehw_serve_exit(&[
        "127.0.0.1:0".into(),
        format!("--registry={}", path.display()),
    ]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(code, Some(2));

    // An unknown flag is refused by name, not taken for the bind address.
    let (code, stderr) = ehw_serve_exit(&["127.0.0.1:0".into(), "--no-such-flag=x".into()]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("unknown flag --no-such-flag=x"), "{stderr}");
}
