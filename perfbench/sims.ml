(* The two simulation workloads: the paper grid (packet layers) and the
   hybrid CBR field (fluid layer).  Both run specs back to back in this
   process, one at a time, for the measured window. *)

module S = Core.Scenario

let ccs = Mptcp.Algorithm.[ Cubic; Lia; Olia ]

let paper_spec ?events ?duration ~cc ~default ~seed () =
  let topo = Core.Paper_net.topology () in
  S.make ~topo ~paths:(Core.Paper_net.tagged_paths ~default topo) ~cc ?duration
    ~seed ?events ()

(* 1000 constant-rate classes, one flow each, 30 kb/s per flow: 30 Mbps
   offered along the connection's shortest path. *)
let cbr_background =
  let topo = Core.Paper_net.topology () in
  let p = List.nth (Core.Paper_net.paths topo) 1 in
  [ Events.Event.at
      (Events.Event.Background_start
         { src = Netgraph.Path.src p; dst = Netgraph.Path.dst p;
           classes = 1000; flows = 1; cc = None; rate_bps = 30_000;
           rtt = Engine.Time.ms 20 })
      ~at:Engine.Time.zero ]

type workload = {
  round : Random.State.t -> S.spec list;
      (** the next round of specs; cell seeds come from the workload rng *)
  warmup : S.spec;  (** a short run that sizes the heaps before the window *)
  reference_rounds : int;
      (** rounds whose results define [optimum_frac]; fixed, so the
          figure is a function of the seed alone.  The window always
          completes at least these. *)
  reference : S.result -> float option;
  rerun_every_round : bool;
  kernels_per_op : int;
      (** {!Calib} kernels timed after each run: about a tenth of its
          wall time, and a fixed count so the heap sees the same work
          on every run of a seed *)
  checks : S.result -> string option list;
}

let seed_of rng = Random.State.bits rng

let per_path (r : S.result) =
  Simtrace.tails_in_path_order r.S.spec (S.per_path_tail_mbps r)

let background_goodput (r : S.result) =
  match r.S.background with
  | Some b -> b.Fluid.Background.Driver.goodput_mbps
  | None -> 0.0

let paper_grid =
  { round =
      (fun rng ->
        List.concat_map
          (fun cc ->
            List.map
              (fun default -> paper_spec ~cc ~default ~seed:(seed_of rng) ())
              [ 1; 2; 3 ])
          ccs);
    warmup =
      paper_spec ~cc:Mptcp.Algorithm.Cubic ~default:2 ~seed:1
        ~duration:(Engine.Time.ms 200) ();
    reference_rounds = 4;
    reference =
      (fun r ->
        if r.S.spec.S.cc = Mptcp.Algorithm.Cubic then
          Some (S.tail_mean_mbps r /. S.optimal_total_mbps r)
        else None);
    rerun_every_round = true;
    kernels_per_op = 2;
    checks = (fun r -> [ Checks.lp_feasible r.S.spec (per_path r) ]) }

let hybrid_cbr =
  { round =
      (fun rng ->
        List.map
          (fun cc ->
            paper_spec ~events:cbr_background ~duration:(Engine.Time.s 2) ~cc
              ~default:2 ~seed:(seed_of rng) ())
          ccs);
    warmup =
      paper_spec ~events:cbr_background ~duration:(Engine.Time.ms 50)
        ~cc:Mptcp.Algorithm.Cubic ~default:2 ~seed:1 ();
    reference_rounds = 1;
    reference =
      (fun r ->
        Some ((S.tail_mean_mbps r +. background_goodput r) /. S.optimal_total_mbps r));
    rerun_every_round = false;
    kernels_per_op = 14;
    checks =
      (fun r ->
        [ Checks.lp_feasible r.S.spec (per_path r);
          (match r.S.background with
          | Some b -> Checks.background_within_offered b
          | None -> Some "hybrid run has no background summary") ]) }

type timed = {
  spec : S.spec;
  result : S.result;
  wall_s : float;
  ref_s : float;  (** [wall_s] in reference seconds ({!Calib}) *)
  minor_words : float;
  major_collections : int;
}

let run_timed spec =
  let g0 = Engine.Gctune.counters () in
  let t0 = Spans.now_ns () in
  let result = S.run spec in
  let t1 = Spans.now_ns () in
  let g1 = Engine.Gctune.counters () in
  let wall_s = float_of_int (t1 - t0) /. 1e9 in
  { spec; result; wall_s; ref_s = wall_s;
    minor_words = g1.Engine.Gctune.minor_words -. g0.Engine.Gctune.minor_words;
    major_collections =
      g1.Engine.Gctune.major_collections - g0.Engine.Gctune.major_collections }

let sim_s (spec : S.spec) = Engine.Time.to_float_s spec.S.duration

type op = { cc : Mptcp.Algorithm.t; sim : float; wall : float; rf : float }

let light t = { cc = t.spec.S.cc; sim = sim_s t.spec; wall = t.wall_s; rf = t.ref_s }

let cc_name (spec : S.spec) = Mptcp.Algorithm.name spec.S.cc

(* The simulator's GC settings (Engine.Gctune: a 64 MB minor heap), with
   the minor heap touched end to end once, so peak memory does not
   depend on how far some allocation burst happened to fill it. *)
let tune_gc () =
  Engine.Gctune.tune ();
  for i = 1 to (Gc.get ()).Gc.minor_heap_size do
    ignore (Sys.opaque_identity (ref i) : int ref)
  done

(* What a fresh process does before its first timed run, for
   {!Setup}: GC tuning, a round's specs with their LP optima, and a 1 ms
   run of the first spec (network, connection and, on hybrid_cbr, the
   background field's attach). *)
let probe w ~seed ~k =
  Engine.Gctune.tune ();
  let specs = w.round (Random.State.make [| seed; k |]) in
  List.iter (fun s -> ignore (S.optimum_rates s : float array)) specs;
  ignore (S.run { (List.hd specs) with S.duration = Engine.Time.ms 1 } : S.result)

(* [emit name unit value] records one metric. *)
let run w ~name ~cal ~seed ~seconds ~trace rep emit =
  let setup_s =
    Setup.measure ~cal rep (fun k ->
        Setup.spawn_ready [ "--probe"; name; string_of_int seed; string_of_int k ])
  in
  tune_gc ();
  (* A short run that grows the heaps to working size. *)
  ignore (S.run w.warmup : S.result);
  let rng = Random.State.make [| seed; 0x5eed |] in
  let t_begin = Spans.now_ns () in
  let deadline = t_begin + int_of_float (seconds *. 1e9) in
  let ops = ref [] and rounds = ref 0 and first_round = ref [] in
  let reference = ref [] in
  (* Each run is calibrated by the kernels just before and after it. *)
  let last_kernel = ref (Calib.run cal w.kernels_per_op) in
  while !rounds < w.reference_rounds || Spans.now_ns () < deadline do
    let done_ =
      List.map
        (fun spec ->
          let t = run_timed spec in
          let after = Calib.run cal w.kernels_per_op in
          let kernel_ns = (!last_kernel + after) / 2 in
          last_kernel := after;
          { t with ref_s = Calib.to_ref ~kernel_ns t.wall_s })
        (w.round rng)
    in
    List.iter (fun t -> Report.ops rep (w.checks t.result)) done_;
    if !rounds < w.reference_rounds then
      reference :=
        !reference @ List.filter_map (fun t -> w.reference t.result) done_;
    if !rounds = 0 then first_round := done_;
    if w.rerun_every_round then begin
      let t = List.nth done_ (Random.State.int rng (List.length done_)) in
      Report.op rep
        (Checks.same_run ~what:"re-run of a cell"
           (Checks.fingerprint t.result)
           (Checks.fingerprint (S.run t.spec)))
    end;
    (* Keep only what the metrics need: retaining whole results would
       grow the heap with the run count and skew peak memory. *)
    ops := List.rev_append (List.map light done_) !ops;
    incr rounds
  done;
  let window_s = float_of_int (Spans.now_ns () - t_begin) /. 1e9 in
  (* After the window: the checks that need one extra run. *)
  if w.rerun_every_round then
    Report.op rep
      (Checks.cubic_floor (S.tail_mean_mbps (S.run (Checks.pinned_cubic_spec ()))))
  else begin
    let t = List.nth !first_round (Random.State.int rng (List.length !first_round)) in
    Report.op rep
      (Checks.same_run ~what:"re-run of a hybrid run"
         (Checks.fingerprint t.result)
         (Checks.fingerprint (S.run t.spec)))
  end;
  let ops = !ops in
  let total f = List.fold_left (fun a t -> a +. f t) 0.0 ops in
  let lat = Array.of_list (List.map (fun o -> o.rf *. 1e3) ops) in
  let p50 = Report.percentile lat 50.0 in
  Printf.printf "%s: %d rounds, %d runs in %.2f s; latency samples %d\n" name
    !rounds (List.length ops) window_s (Array.length lat);
  let sim_total = total (fun o -> o.sim) in
  Printf.printf "calibration: %d kernels, %.3f ms each; %.4f sim s per wall s\n"
    cal.Calib.runs (Calib.kernel_ms cal) (sim_total /. total (fun o -> o.wall));
  if not trace then begin
    let speed = sim_total /. total (fun o -> o.rf) in
    emit "sim_s_per_ref_s" "s/s" speed;
    emit "optimum_frac" "frac"
      (List.fold_left ( +. ) 0.0 !reference /. float_of_int (List.length !reference));
    emit "op_p50_ref_ms" "ms" p50;
    emit "sim_op_p50_ref_ms" "ms" p50;
    emit "ops_per_ref_s" "1/s" (speed /. (sim_total /. float_of_int (List.length ops)));
    emit "setup_s" "s" setup_s;
    emit "peak_rss_mb" "MB" (Report.peak_rss_mb None)
  end
  else begin
    emit "host.kernel_ms" "ms" (Calib.kernel_ms cal);
    emit "host.sim_s_per_wall_s" "s/s" (sim_total /. total (fun o -> o.wall));
    (* Per-CC simulation speed over the whole untraced window. *)
    List.iter
      (fun cc ->
        let mine = List.filter (fun o -> o.cc = cc) ops in
        let sum f = List.fold_left (fun a t -> a +. f t) 0.0 mine in
        emit
          ("core.sim_s_per_ref_s." ^ Mptcp.Algorithm.name cc)
          "s/s"
          (sum (fun o -> o.sim) /. sum (fun o -> o.rf)))
      ccs;
    (* Traced pass: the first round again, rebuilt with monitor hooks.
       Counts come from this fixed set of runs, so they repeat exactly
       for a seed. *)
    let sp = Spans.create () in
    (* Each traced rebuild follows an untraced run of the same spec, so
       the overhead compares runs made with the heap in the same state. *)
    let wall_ns = ref 0 in
    let traced =
      List.map
        (fun t ->
          let bare = run_timed t.spec in
          let start = Spans.now_ns () in
          let r =
            Spans.span sp Spans.Bench ("run." ^ cc_name t.spec) (fun () ->
                Simtrace.run sp t.spec)
          in
          let wall = Spans.now_ns () - start in
          wall_ns := !wall_ns + wall;
          Report.op rep
            (Checks.same_run ~what:"traced rebuild"
               (Checks.fingerprint t.result)
               { Checks.events = r.Simtrace.events; packets = r.packets;
                 delivered = r.delivered });
          (t, r, wall, bare.wall_s))
        !first_round
    in
    let wall_ns = !wall_ns in
    let sum f = List.fold_left (fun a x -> a +. f x) 0.0 traced in
    let isum f = sum (fun x -> float_of_int (f x)) in
    let simt = sum (fun (t, _, _, _) -> sim_s t.spec) in
    (* Counts from the untraced results; the rebuild alone sees the
       scheduler's cancellations and the link queues' totals. *)
    let res f = isum (fun (t, _, _, _) -> f t.result) in
    let rb f = isum (fun (_, r, _, _) -> f r) in
    let subflows f =
      res (fun r -> List.fold_left (fun a s -> a + f s) 0 r.S.subflows)
    in
    let events = res (fun r -> r.S.events_processed) in
    let self l = float_of_int (Spans.self_ns sp l) in
    List.iter
      (fun l -> emit (Spans.name l ^ ".self_s") "s" (self l /. 1e9))
      Spans.all;
    emit "engine.ns_per_event" "ns" (self Spans.Engine /. events);
    emit "engine.events_per_sim_s" "1/sim_s" (events /. simt);
    let cancelled = rb (fun r -> r.Simtrace.cancelled) in
    emit "engine.cancelled_frac" "frac" (cancelled /. (events +. cancelled));
    let enq = rb (fun r -> r.Simtrace.enqueued) and drp = rb (fun r -> r.Simtrace.dropped) in
    emit "netsim.enqueued_per_sim_s" "1/sim_s" (enq /. simt);
    emit "netsim.drop_frac" "frac" (drp /. (enq +. drp));
    emit "packet.recycle_frac" "frac"
      (res (fun r -> r.S.pool_stats.Packet.Pool.recycled)
      /. res (fun r -> r.S.pool_stats.Packet.Pool.acquired));
    let pkts = res (fun r -> r.S.packets_created) in
    emit "alloc.minor_words_per_packet" "words/pkt"
      (sum (fun (t, _, _, _) -> t.minor_words) /. pkts);
    emit "alloc.major_collections" "count"
      (isum (fun (t, _, _, _) -> t.major_collections));
    let segs = subflows (fun s -> s.S.segments_sent) in
    emit "tcp.segments_per_sim_s" "1/sim_s" (segs /. simt);
    emit "tcp.retransmit_frac" "frac" (subflows (fun s -> s.S.retransmits) /. segs);
    emit "tcp.timeouts" "count" (subflows (fun s -> s.S.timeouts));
    emit "mptcp.goodput_frac" "frac"
      (res (fun r -> r.S.delivered_bytes) /. subflows (fun s -> s.S.bytes_acked));
    emit "lp.solve_us" "us" (Spans.mean_us sp "constraints.optimum");
    let bg f =
      res (fun r -> match r.S.background with Some b -> f b | None -> 0)
    in
    let steps = bg (fun b -> b.Fluid.Background.Driver.ode_steps) in
    let class_steps = bg (fun b -> b.Fluid.Background.Driver.ode_steps * b.classes) in
    emit "fluid.ns_per_class_step" "ns"
      (if class_steps > 0.0 then self Spans.Fluid /. class_steps else 0.0);
    emit "fluid.ode_steps_per_sim_s" "1/sim_s" (steps /. simt);
    emit "fluid.attach_s" "s" (Spans.mean_us sp "background.attach" /. 1e6);
    let untraced = sum (fun (_, _, _, w) -> w) in
    let traced_s = isum (fun (_, _, w, _) -> w) /. 1e9 in
    emit "trace.overhead_frac" "frac" ((traced_s /. untraced) -. 1.0);
    let bench_ns = Spans.self_ns sp Spans.Bench in
    emit "trace.unattributed_frac" "frac"
      (float_of_int bench_ns /. float_of_int wall_ns);
    Report.op rep (Checks.unattributed ~bench_ns ~wall_ns);
    Spans.write sp
      ~path:(Printf.sprintf "%s/spans-%s-%d.jsonl" Report.out_dir name seed)
  end
