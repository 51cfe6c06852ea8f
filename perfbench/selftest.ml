(* Self-test of the output checks: each must pass a clean output and
   fire on a deliberately corrupted one. *)

module P = Daemon.Protocol
module S = Core.Scenario

let run () =
  let bad = ref 0 in
  let expect name ~clean ~corrupt =
    let ok = clean = None && corrupt <> None in
    if not ok then incr bad;
    Printf.printf "%-28s clean: %-6s corrupted: %s\n%!" name
      (match clean with None -> "pass" | Some _ -> "FIRES")
      (match corrupt with Some _ -> "fires" | None -> "MISSED");
    Option.iter (Printf.printf "  clean output failed: %s\n") clean
  in
  (try Unix.mkdir Report.out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (* A paper-network cell. *)
  let spec = Sims.paper_spec ~cc:Mptcp.Algorithm.Lia ~default:2 ~seed:3 () in
  let r = S.run spec in
  let tails = Sims.per_path r in
  expect "lp_feasible (tail)" ~clean:(Checks.lp_feasible spec tails)
    ~corrupt:(Checks.lp_feasible spec (Array.map (fun x -> x *. 1.25) tails));
  let pinned = S.tail_mean_mbps (S.run (Checks.pinned_cubic_spec ())) in
  expect "cubic_floor (pinned cell)" ~clean:(Checks.cubic_floor pinned)
    ~corrupt:(Checks.cubic_floor (Checks.cubic_floor_mbps -. 0.5));
  let fp = Checks.fingerprint r in
  expect "same_run (re-run)"
    ~clean:(Checks.same_run ~what:"re-run" fp (Checks.fingerprint (S.run spec)))
    ~corrupt:(Checks.same_run ~what:"re-run" fp { fp with Checks.events = fp.Checks.events + 1 });
  let sp = Spans.create () in
  let t0 = Spans.now_ns () in
  let tr = Spans.span sp Spans.Bench "run" (fun () -> Simtrace.run sp spec) in
  let wall_ns = Spans.now_ns () - t0 in
  let tfp =
    { Checks.events = tr.Simtrace.events; packets = tr.Simtrace.packets;
      delivered = tr.Simtrace.delivered }
  in
  expect "same_run (traced rebuild)"
    ~clean:(Checks.same_run ~what:"traced" fp tfp)
    ~corrupt:(Checks.same_run ~what:"traced" fp { tfp with Checks.delivered = tfp.Checks.delivered - 1 });
  (* The same run with benchmark glue worth a quarter of it inside the
     root span, so a fifth of the traced wall belongs to no layer. *)
  let padded = Spans.create () in
  let p0 = Spans.now_ns () in
  Spans.span padded Spans.Bench "run" (fun () ->
      let a = Spans.now_ns () in
      ignore (Simtrace.run padded spec : Simtrace.result);
      let until = Spans.now_ns () + ((Spans.now_ns () - a) / 4) in
      while Spans.now_ns () < until do () done);
  let padded_ns = Spans.now_ns () - p0 in
  expect "unattributed"
    ~clean:(Checks.unattributed ~bench_ns:(Spans.self_ns sp Spans.Bench) ~wall_ns)
    ~corrupt:(Checks.unattributed ~bench_ns:(Spans.self_ns padded Spans.Bench) ~wall_ns:padded_ns);
  (* A short hybrid run. *)
  let hspec =
    Sims.paper_spec ~events:Sims.cbr_background ~duration:(Engine.Time.ms 300)
      ~cc:Mptcp.Algorithm.Olia ~default:2 ~seed:5 ()
  in
  let h = S.run hspec in
  let summary = Option.get h.S.background in
  let hfp = Checks.fingerprint h in
  let htr = Simtrace.run (Spans.create ()) hspec in
  expect "same_run (traced hybrid)"
    ~clean:(Checks.same_run ~what:"traced" hfp
              { Checks.events = htr.Simtrace.events; packets = htr.Simtrace.packets;
                delivered = htr.Simtrace.delivered })
    ~corrupt:(Checks.same_run ~what:"traced" hfp { hfp with Checks.packets = hfp.Checks.packets + 1 });
  expect "background_within_offered"
    ~clean:(Checks.background_within_offered summary)
    ~corrupt:
      (Checks.background_within_offered
         { summary with
           Fluid.Background.Driver.goodput_mbps =
             summary.Fluid.Background.Driver.offered_mbps *. 1.01 });
  (* The service path, in process. *)
  let tag = Printf.sprintf "%s/selftest-%d" Report.out_dir (Unix.getpid ()) in
  Svc.rm_rf (tag ^ "-store");
  let d =
    Daemon.start
      { (Daemon.default_conf ~socket_path:(tag ^ ".sock") ~store_dir:(tag ^ "-store"))
        with Daemon.jobs = Some 1; log = false }
  in
  let server = Thread.create Daemon.serve d in
  let submit id = Daemon.handle d (P.Submit (Events.Sexp.parse_string (Svc.spec_text ~seed:1 id))) in
  let fresh = submit 4 and hit = submit 4 in
  let stats = Daemon.handle d P.Stats in
  ignore (Daemon.handle d P.Drain : P.response);
  Thread.join server;
  Svc.rm_rf (tag ^ "-store");
  let error_of r = Result.fold ~ok:(fun _ -> None) ~error:Option.some r in
  let fresh_o = Result.get_ok (Checks.single_outcome fresh) in
  let hit_o = Result.get_ok (Checks.single_outcome hit) in
  expect "single_outcome (busy)" ~clean:(error_of (Checks.single_outcome hit))
    ~corrupt:(error_of (Checks.single_outcome (P.Error (P.Busy, "queue full"))));
  expect "single_outcome (failed)" ~clean:(error_of (Checks.single_outcome fresh))
    ~corrupt:(error_of (Checks.single_outcome (P.Error (P.Failed, "simulation raised"))));
  let sspec = Svc.spec_of ~seed:1 4 in
  let expected = Core.Canon.hash sspec in
  expect "reply_hash" ~clean:(Checks.reply_hash ~expected hit_o)
    ~corrupt:
      (Checks.reply_hash ~expected
         { hit_o with P.hash = Core.Canon.hash (Svc.spec_of ~seed:1 5) });
  expect "stats_reply" ~clean:(error_of (Checks.stats_reply stats))
    ~corrupt:(error_of (Checks.stats_reply (P.Error (P.Busy, "queue full"))));
  let table = Hashtbl.create 4 in
  ignore (Checks.consistent table fresh_o : string option);
  expect "consistent (hit vs fresh)"
    ~clean:(match Checks.consistent table hit_o with
           | None -> Checks.consistent table { hit_o with P.kind = P.Shared }
           | e -> e)
    ~corrupt:(Checks.consistent table
                { hit_o with P.tail_mbps = Float.succ hit_o.P.tail_mbps });
  let direct = S.run (Checks.as_service_runs sspec) in
  expect "direct_match (re-run)" ~clean:(Checks.direct_match hit_o sspec direct)
    ~corrupt:(Checks.direct_match { hit_o with P.sim_events = hit_o.P.sim_events + 1 } sspec direct);
  (* A daemon process, drained over its socket. *)
  let c = Svc.spawn "selftest" 0 in
  let drain =
    match Svc.wait_ready c with None -> Svc.stop c | Some _ as e -> Svc.kill_live (); e
  in
  expect "drained (exit status)" ~clean:drain
    ~corrupt:(Checks.drained (Ok P.Drained) (Unix.WEXITED 1));
  expect "drained (reply)" ~clean:drain
    ~corrupt:(Checks.drained (Ok (P.Error (P.Busy, "queue full"))) (Unix.WEXITED 0));
  Printf.printf "self-test: %s\n%!" (if !bad = 0 then "ok" else Printf.sprintf "%d check(s) wrong" !bad);
  if !bad = 0 then 0 else 1
