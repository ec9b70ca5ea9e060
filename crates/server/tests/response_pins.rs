//! Exact bytes of every result shape the daemon writes: one `Service`
//! answers compile, simulate, verify (a bench, then a `.ppl` source whose
//! finding carries a span), an exhaustive and a guided `dse`, `stats` and
//! `health`, in that order; then the echoed `id` of every JSON scalar
//! spelling. The golden corpora pin error shapes; these pin the results.
//! The literals are never edited to make a change pass.

use pphw_dse::cache::EvalCache;
use pphw_server::json::escape;
use pphw_server::{Limits, Service};

const SUB_PPL: &str = include_str!("../../../tests/corpus/bad/nonassoc_combine.ppl");

fn service() -> Service {
    Service::new(Limits::default(), 1, EvalCache::new())
}

#[test]
fn result_bodies_are_pinned() {
    let svc = service();
    let call = |line: &str| svc.handle_line(line).expect("a response");
    let source = escape(SUB_PPL);
    let steps = [
        (
            "{\"id\":1,\"method\":\"compile\",\"bench\":\"sumrows\"}".to_string(),
            r#"{"id":1,"ok":true,"result":{"program":"sumrows","opt":"meta","tiles":{"m":64,"n":512},"inner_par":64,"on_chip_bytes":262404,"buffers":3,"area":{"logic":68170,"ff":102204,"mem":129},"hgl_fnv1a64":"25dccafdf143a981","hgl_lines":20}}"#,
        ),
        (
            "{\"id\":2,\"method\":\"simulate\",\"bench\":\"sumrows\"}".to_string(),
            r#"{"id":2,"ok":true,"result":{"program":"sumrows","opt":"meta","tiles":{"m":64,"n":512},"inner_par":64,"cycles":17217,"dram_words":1050624,"on_chip_bytes":262404,"area":{"logic":68170,"ff":102204,"mem":129}}}"#,
        ),
        (
            "{\"id\":3,\"method\":\"verify\",\"bench\":\"gemm\"}".to_string(),
            r#"{"id":3,"ok":true,"result":{"program":"gemm","inner_par":64,"error_count":0,"report":{"error_count":0,"file":"examples/gemm.ppl","diagnostics":[]}}}"#,
        ),
        (
            format!(
                "{{\"id\":4,\"method\":\"verify\",\"source\":{source},\"file\":\"sub.ppl\",\
                 \"sizes\":{{\"d\":64}},\"inner_par\":4}}"
            ),
            r#"{"id":4,"ok":true,"result":{"program":"sub","inner_par":4,"error_count":1,"report":{"error_count":1,"file":"sub.ppl","diagnostics":[{"code":"PPHW010","severity":"error","path":"sub@5bc6525d93296071/s[0]/combine[0]","message":"combine is not provably associative-commutative (body is not a commutative operator over both operands: a non-commutative binary operation); parallelizing it with inner_par=4 races — allowlist the path if it is correct by construction","span":{"start":309,"end":353,"line":11,"col":5}}]}}}"#,
        ),
        (
            "{\"id\":5,\"method\":\"dse\",\"bench\":\"sumrows\",\
             \"tile_candidates\":{\"m\":[4,8]},\"inner_pars\":[16]}"
                .to_string(),
            r#"{"id":5,"ok":true,"result":{"program":"sumrows","best":{"label":"m=8 par=16 sim=max4","cycles":69217,"area_score":0.0841844512195122},"space":2,"evaluated":2,"frontier":1,"failures":0,"pruned":0,"simulated":2,"sampled":0,"skipped_model":0}}"#,
        ),
        (
            "{\"id\":6,\"method\":\"dse\",\"bench\":\"sumrows\",\
             \"tile_candidates\":{\"m\":[4,8,16],\"n\":[4,8]},\"inner_pars\":[4,16],\
             \"strategy\":\"guided\",\"sample\":4,\"top_k\":2,\"explore\":1,\
             \"area_cap\":0.5}"
                .to_string(),
            r#"{"id":6,"ok":true,"result":{"program":"sumrows","best":{"label":"m=16,n=8 par=16 sim=max4","cycles":287844,"area_score":0.06211890243902439},"space":12,"evaluated":7,"frontier":2,"failures":0,"pruned":0,"simulated":7,"sampled":4,"skipped_model":5}}"#,
        ),
        (
            "{\"id\":7,\"method\":\"stats\"}".to_string(),
            r#"{"id":7,"ok":true,"result":{"requests":7,"errors":0,"dedup_hits":0,"dedup_builds":6,"design_builds":17,"design_reuses":8,"eval_hits":0,"eval_misses":10,"eval_len":10,"shed_requests":0,"shed_connections":0,"accepted_connections":0,"panics":0,"save_failures":0}}"#,
        ),
        (
            "{\"id\":8,\"method\":\"health\"}".to_string(),
            r#"{"id":8,"ok":true,"result":{"healthy":true,"inflight":0,"max_inflight":64,"connections":0,"max_connections":256,"shed_requests":0,"shed_connections":0,"panics":0,"save_failures":0,"eval_len":10,"journaled":false}}"#,
        ),
    ];
    let diverged: Vec<String> = steps
        .iter()
        .filter_map(|(line, want)| {
            let got = call(line);
            (got != *want).then(|| format!("== {line}\n-- expected --\n{want}\n-- got --\n{got}"))
        })
        .collect();
    assert!(diverged.is_empty(), "{}", diverged.join("\n\n"));
}

#[test]
fn echoed_ids_are_pinned() {
    let svc = service();
    for (id, echoed) in [
        ("-0", "0"),
        ("1.5", "1.5"),
        ("1e3", "1000"),
        ("\"a\\\"b\"", "\"a\\\"b\""),
        ("null", "null"),
    ] {
        let line = format!("{{\"id\":{id},\"method\":\"ping\"}}");
        assert_eq!(
            svc.handle_line(&line).expect("a response"),
            format!("{{\"id\":{echoed},\"ok\":true,\"result\":{{\"pong\":true}}}}"),
            "{line}"
        );
    }
    assert_eq!(
        svc.handle_line("{\"method\":\"ping\"}")
            .expect("a response"),
        "{\"id\":null,\"ok\":true,\"result\":{\"pong\":true}}"
    );
}
