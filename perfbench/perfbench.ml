(* Benchmark entry point:

     perfbench --workload paper_grid|hybrid_cbr|service_mix --seed N
               --seconds S --trace 0|1
     perfbench --self-test

   With --trace 0 it prints the end-to-end metrics, with --trace 1 the
   per-layer ones; the last line of standard output is the JSON result.
   See perfbench/README.md for the metric definitions. *)

let end_to_end =
  [ ("sim_s_per_ref_s", "s/s"); ("optimum_frac", "frac");
    ("op_p50_ref_ms", "ms"); ("sim_op_p50_ref_ms", "ms");
    ("ops_per_ref_s", "1/s"); ("setup_s", "s"); ("peak_rss_mb", "MB") ]

let per_layer =
  [ ("engine.self_s", "s"); ("engine.ns_per_event", "ns");
    ("engine.events_per_sim_s", "1/sim_s"); ("engine.cancelled_frac", "frac");
    ("core.self_s", "s"); ("core.sim_s_per_ref_s.cubic", "s/s");
    ("core.sim_s_per_ref_s.lia", "s/s"); ("core.sim_s_per_ref_s.olia", "s/s");
    ("core.canon_hash_us", "us");
    ("netsim.self_s", "s"); ("netsim.enqueued_per_sim_s", "1/sim_s");
    ("netsim.drop_frac", "frac");
    ("packet.recycle_frac", "frac"); ("alloc.minor_words_per_packet", "words/pkt");
    ("alloc.major_collections", "count");
    ("tcp.self_s", "s"); ("tcp.segments_per_sim_s", "1/sim_s");
    ("tcp.retransmit_frac", "frac"); ("tcp.timeouts", "count");
    ("mptcp.self_s", "s"); ("mptcp.goodput_frac", "frac");
    ("measure.self_s", "s");
    ("lp.self_s", "s"); ("lp.solve_us", "us");
    ("fluid.self_s", "s"); ("fluid.ns_per_class_step", "ns");
    ("fluid.ode_steps_per_sim_s", "1/sim_s"); ("fluid.attach_s", "s");
    ("events.self_s", "s"); ("events.parse_us", "us");
    ("serve.self_s", "s"); ("serve.lookup_us", "us");
    ("serve.trend_append_us", "us"); ("serve.claim_us", "us");
    ("serve.insert_us", "us"); ("serve.hit_frac", "frac");
    ("serve.store_records", "count");
    ("daemon.self_s", "s"); ("daemon.codec_us", "us");
    ("daemon.frame_rtt_us", "us"); ("daemon.handle_us.hit", "us");
    ("daemon.handle_us.miss", "us"); ("daemon.shared", "count");
    ("daemon.rejected", "count");
    ("pool.self_s", "s"); ("pool.busy_frac", "frac");
    ("service.hit_p50_ref_ms", "ms"); ("service.hit_p99_ref_ms", "ms");
    ("service.hit_samples", "count"); ("service.miss_p50_ref_ms", "ms");
    ("service.miss_p90_ref_ms", "ms"); ("service.miss_samples", "count");
    ("host.kernel_ms", "ms"); ("host.sim_s_per_wall_s", "s/s");
    ("bench.self_s", "s"); ("trace.unattributed_frac", "frac");
    ("trace.overhead_frac", "frac");
    ("ops_failed_frac", "frac") ]

let usage () =
  prerr_endline
    "usage: perfbench --workload paper_grid|hybrid_cbr|service_mix --seed N \
     --seconds S --trace 0|1\n       perfbench --self-test";
  exit 2

let sim_workload = function
  | "paper_grid" -> Sims.paper_grid
  | "hybrid_cbr" -> Sims.hybrid_cbr
  | _ -> usage ()

let run_workload ~workload ~seed ~seconds ~trace =
  let rep = Report.create () in
  let figures = Hashtbl.create 64 in
  let names = if trace then per_layer else end_to_end in
  let emit name _unit v =
    if not (List.mem_assoc name names) then
      failwith ("perfbench: undeclared metric " ^ name);
    Hashtbl.replace figures name v
  in
  let cal = Calib.start () in
  Fun.protect
    ~finally:(fun () -> Svc.kill_live (); Calib.stop cal)
    (fun () ->
      match workload with
      | "service_mix" -> Svc.run ~cal ~seed ~seconds ~trace rep emit
      | w -> Sims.run (sim_workload w) ~name:w ~cal ~seed ~seconds ~trace rep emit);
  if trace then
    emit "ops_failed_frac" "frac"
      (float_of_int rep.Report.failed /. float_of_int (max 1 rep.Report.attempted));
  (* A layer a workload does not exercise reads 0 in the traced run; an
     end-to-end metric must have been measured. *)
  List.iter
    (fun (name, unit) ->
      match Hashtbl.find_opt figures name with
      | Some v -> Report.metric rep name unit v
      | None when trace -> Report.metric rep name unit 0.0
      | None -> failwith ("perfbench: end-to-end metric not measured: " ^ name))
    names;
  Report.print rep

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | [ "--self-test" ] -> exit (Selftest.run ())
  (* The processes {!Setup} and {!Svc} start. *)
  | [ "--probe"; workload; seed; k ] ->
    Sims.probe (sim_workload workload) ~seed:(int_of_string seed) ~k:(int_of_string k);
    print_endline "ready";
    exit 0
  | [ "--daemon"; socket; store ] -> exit (Svc.daemon_main ~socket ~store)
  | _ ->
    let rec parse acc = function
      | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
      | [] -> acc
      | _ -> usage ()
    in
    let opts = parse [] args in
    let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
    let int_of k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
    let workload = get "workload" and seed = int_of "seed" in
    let seconds =
      match float_of_string_opt (get "seconds") with
      | Some s when s > 0.0 -> s
      | _ -> usage ()
    in
    let trace =
      match get "trace" with "0" -> false | "1" -> true | _ -> usage ()
    in
    if not (List.mem workload [ "paper_grid"; "hybrid_cbr"; "service_mix" ]) then usage ();
    (try Unix.mkdir Report.out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    try run_workload ~workload ~seed ~seconds ~trace
    with e ->
      Printf.printf "FAILED: %s\n%!" (Printexc.to_string e);
      exit 1
