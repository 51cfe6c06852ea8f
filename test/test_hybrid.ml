(* Accuracy goldens for the hybrid fluid/packet co-simulation: on the
   paper topology, a fluid CBR background field must cost the
   foreground MPTCP connection the same goodput (within 5%) as the
   equivalent packet-level cross-traffic source on the same route —
   the cheap fluid abstraction and the expensive packet one agree on
   what the foreground experiences.  Four ablations cover light and
   heavy background load, coupled and uncoupled foreground
   controllers, and a doubled buffer; every hybrid run is audited.
   The "field" group drives Fluid.Background alone: staged class
   activation, the state layout, and per-tick allocation. *)

module E = Events.Event

let foreground_tail r =
  List.fold_left (fun acc (_, m) -> acc +. m) 0.0
    (Core.Scenario.per_path_tail_mbps r)

(* One (hybrid, all-packet) spec pair: same topology, paths, seed and
   duration; the only difference is whether the background load is a
   fluid field or a packet-level CBR source. *)
let run_pair ?(duration_s = 2) ~cc ~bg_mbps ~flows ~limit_pkts () =
  let make events =
    let topo = Core.Paper_net.topology () in
    let paths = Core.Paper_net.tagged_paths ~default:2 topo in
    let net_config =
      { Core.Scenario.default_net_config with Netsim.Net.limit_pkts }
    in
    ( Core.Scenario.make ~topo ~paths ~cc ~duration:(Engine.Time.s duration_s)
        ~seed:1 ~net_config ~audit:true ~events (),
      paths )
  in
  (* Endpoints of the MPTCP connection: both load models route from s
     to d along the same delay-shortest path. *)
  let topo = Core.Paper_net.topology () in
  let p0 = List.hd (Core.Paper_net.paths topo) in
  let src = Netgraph.Path.src p0 and dst = Netgraph.Path.dst p0 in
  let total_bps = int_of_float (bg_mbps *. 1e6) in
  let hybrid_spec, _ =
    make
      [ E.at
          (E.Background_start
             { src; dst; classes = 1; flows; cc = None;
               rate_bps = total_bps / flows; rtt = Engine.Time.ms 20 })
          ~at:Engine.Time.zero ]
  in
  let packet_spec, _ =
    make
      [ E.at
          (E.Traffic_start
             { src; dst; tag = 100; rate_bps = total_bps; stop_at = None })
          ~at:Engine.Time.zero ]
  in
  (Core.Scenario.run hybrid_spec, Core.Scenario.run packet_spec)

let check_pair ?duration_s ~name ~cc ~bg_mbps ~flows ~limit_pkts
    ~golden_hybrid () =
  let rh, rp = run_pair ?duration_s ~cc ~bg_mbps ~flows ~limit_pkts () in
  (* The hybrid run must hold every audit invariant with the fluid
     field slowing the shared serializers. *)
  (match rh.Core.Scenario.audit with
  | None -> Alcotest.fail "hybrid run not audited"
  | Some rep ->
    Alcotest.(check int) (name ^ " audit clean") 0 rep.Audit.total_violations);
  (match rh.Core.Scenario.background with
  | None -> Alcotest.fail "hybrid run has no background summary"
  | Some s ->
    Alcotest.(check bool) (name ^ " driver ticked") true
      (s.Fluid.Background.Driver.ticks > 0);
    (* A CBR field under capacity delivers what it offers. *)
    Alcotest.(check (float 0.05)) (name ^ " bg goodput") bg_mbps
      s.Fluid.Background.Driver.goodput_mbps);
  let h = foreground_tail rh and p = foreground_tail rp in
  Alcotest.(check bool)
    (Printf.sprintf "%s hybrid %.2f within 5%% of packet %.2f" name h p)
    true
    (Float.abs (h -. p) <= 0.05 *. p);
  (* Pin the hybrid side so accuracy regressions show up as a golden
     diff, not just a widened gap. *)
  Alcotest.(check (float 1.0)) (name ^ " hybrid golden") golden_hybrid h

let light_lia () =
  check_pair ~name:"lia light" ~cc:Mptcp.Algorithm.Lia ~bg_mbps:8.0
    ~flows:10 ~limit_pkts:16 ~golden_hybrid:75.36 ()

let heavy_lia () =
  check_pair ~name:"lia heavy" ~cc:Mptcp.Algorithm.Lia ~bg_mbps:24.0
    ~flows:10 ~limit_pkts:16 ~golden_hybrid:59.18 ()

let light_olia () =
  check_pair ~duration_s:4 ~name:"olia light" ~cc:Mptcp.Algorithm.Olia
    ~bg_mbps:8.0 ~flows:10 ~limit_pkts:16 ~golden_hybrid:74.95 ()

let big_buffer_cubic () =
  check_pair ~name:"cubic 32-pkt" ~cc:Mptcp.Algorithm.Cubic ~bg_mbps:8.0
    ~flows:10 ~limit_pkts:32 ~golden_hybrid:81.40 ()

(* --- the class field on its own (no packet side) --- *)

module B = Fluid.Background

let cbr_field ?(channels = 2) ?(flows = 1) ?(start_s = fun _ -> 0.0) ~n
    ~rate_pps () =
  let chans = Array.make channels { B.cap_pps = 1000.0; limit_pkts = 100 } in
  let classes =
    Array.init n (fun i ->
        { B.flows; law = B.Constant; flow_rate_pps = rate_pps;
          base_rtt_s = 0.02; chans = [| i mod channels |];
          start_s = start_s i })
  in
  B.compile ~channels:chans ~classes ()

(* 1000 CBR classes over two channels, the upper half starting at
   0.5 s: the first half offers 0.7x capacity per channel, the full set
   1.4x, so only the late activation overloads.  The start lands on a
   tick boundary, so the step that crosses it still runs with the late
   classes off, and they must join on the step after.  Values pinned
   from a per-class summation of the same field: the folded constant
   load must reproduce it bit for bit. *)
let staged_activation () =
  let f =
    cbr_field ~n:1000 ~rate_pps:2.8
      ~start_s:(fun i -> if i < 500 then 0.0 else 0.5)
      ()
  in
  B.set_foreground f ~chan:1 ~pps:50.0;
  for k = 1 to 1000 do
    ignore (B.advance f ~dt_s:0.001);
    if k = 400 then begin
      Alcotest.(check (float 0.0)) "no queue before the activation" 0.0
        (B.queues_pkts f).(0);
      Alcotest.(check (float 1e-9)) "early half's goodput" 1400.0
        (B.goodput_pps f)
    end
  done;
  let q = B.queues_pkts f in
  let exact = Alcotest.(check (float 0.0)) in
  exact "queue 0" 76.702475196539993 q.(0);
  exact "queue 1" 77.845777985727906 q.(1);
  exact "departure 0" 1000.0 (B.departure_pps f ~chan:0);
  exact "departure 1" 965.78308308693977 (B.departure_pps f ~chan:1);
  exact "goodput" 1966.4906613787452 (B.goodput_pps f);
  exact "offered" 2800.0000000000255 (B.offered_pps f)

(* Constant classes carry no ODE state: a pure-CBR field integrates
   its channel queues and nothing else, however many classes it has. *)
let cbr_dim_is_channels () =
  List.iter
    (fun n ->
      let f = cbr_field ~n ~rate_pps:1.0 () in
      Alcotest.(check int) (Printf.sprintf "%d classes" n) 2 (B.dim f);
      Alcotest.(check int) "classes kept" n (B.n_classes f);
      Alcotest.(check (array (float 0.0)))
        "constant classes report the window floor"
        (Array.make n Fluid.Model.default_config.Fluid.Model.min_cwnd)
        (B.windows f))
    [ 10; 1000 ]

(* N one-flow classes and one N-flow class offer the same load; their
   queues may differ only by the order of the per-channel sum. *)
let cbr_split_matches_aggregate () =
  let n = 1000 in
  let split = cbr_field ~channels:1 ~n ~rate_pps:1.3 () in
  let whole = cbr_field ~channels:1 ~flows:n ~n:1 ~rate_pps:1.3 () in
  for k = 1 to 500 do
    ignore (B.advance split ~dt_s:0.001);
    ignore (B.advance whole ~dt_s:0.001);
    let a = (B.queues_pkts split).(0) and b = (B.queues_pkts whole).(0) in
    if Float.abs (a -. b) > 1e-9 *. Float.max (Float.abs a) (Float.abs b)
    then Alcotest.failf "tick %d: split queue %.17g, aggregate %.17g" k a b
  done;
  Alcotest.(check bool) "the load overflows the channel" true
    ((B.queues_pkts whole).(0) > 1.0)

(* Words allocated by 1000 advances of a pure-CBR field, kept awake by
   a foreground rate that flips every tick: (minor, all).  "All" adds
   the blocks too large for the minor heap, which go straight to the
   major heap.  The total load is the same for every [n] (n classes of
   1000/n flows). *)
let advance_words ~n =
  let f = cbr_field ~flows:(1000 / n) ~n ~rate_pps:1.3 () in
  ignore (B.advance f ~dt_s:0.001);
  let allocated () =
    let minor, promoted, major = Gc.counters () in
    (minor, minor +. major -. promoted)
  in
  let m0, a0 = allocated () in
  for k = 1 to 1000 do
    B.set_foreground f ~chan:0 ~pps:(if k land 1 = 0 then 0.0 else 400.0);
    ignore (B.advance f ~dt_s:0.001)
  done;
  let m1, a1 = allocated () in
  Alcotest.(check bool) "the field stayed awake" false (B.dormant f);
  (m1 -. m0, a1 -. a0)

let cbr_advance_allocation_flat () =
  let small_minor, small_all = advance_words ~n:10 in
  let large_minor, large_all = advance_words ~n:1000 in
  let flat what small large =
    if large > small *. 1.05 then
      Alcotest.failf "%s words: %.0f for 1000 classes, %.0f for 10" what
        large small
  in
  flat "minor" small_minor large_minor;
  flat "allocated" small_all large_all

let () =
  Alcotest.run "hybrid"
    [
      ( "accuracy",
        [
          Alcotest.test_case "lia light background" `Quick light_lia;
          Alcotest.test_case "lia heavy background" `Quick heavy_lia;
          Alcotest.test_case "olia light background" `Quick light_olia;
          Alcotest.test_case "cubic big buffers" `Quick big_buffer_cubic;
        ] );
      ( "field",
        [
          Alcotest.test_case "staged activation" `Quick staged_activation;
          Alcotest.test_case "cbr state is the channels" `Quick
            cbr_dim_is_channels;
          Alcotest.test_case "cbr split matches aggregate" `Quick
            cbr_split_matches_aggregate;
          Alcotest.test_case "cbr advance allocation flat" `Quick
            cbr_advance_allocation_flat;
        ] );
    ]
