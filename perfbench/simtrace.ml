(* A traced rebuild of [Core.Scenario.run] for the per-layer split of a
   simulation.  All packet layers run inside one [Scenario.run] call, so
   this module assembles the same run from the public constructors, in
   the same order and with the same random streams (plain runs only: no
   audit, observability or packet trace), and drives the scheduler one
   [Engine.Sched.step] at a time.

   Time inside the event loop is charged between monitor hooks: the
   time from the previous hook to a hook goes to the layer whose step
   that hook ends (a link-queue Enqueued ends netsim's routing and
   enqueue, a sender Seg_sent ends tcp's segment build, a connection
   Sched_grant ends the mptcp scheduler's pick, two taps around the
   capture bracket measure).  The time before the dispatch tap fires is
   the engine's pop.  A callback that fires no hook at all is a link
   serializer (netsim), a sampling probe (measure, on sampling-period
   multiples) or a fluid background tick (fluid, on tick multiples in a
   hybrid run).  Coupled congestion control (LIA, OLIA) counts as mptcp
   and CUBIC's as tcp; the receiver's hand-off into MPTCP reassembly
   counts as tcp.

   The rebuild must reproduce [Scenario.run]'s [events_processed],
   [packets_created] and [delivered_bytes] exactly; the caller checks
   that against an untraced run of the same spec. *)

module S = Core.Scenario

(* What only the rebuild can see; every other count comes from the
   untraced [Scenario.run] result of the same spec. *)
type result = {
  events : int;
  packets : int;
  delivered : int;
  cancelled : int;  (** scheduler events cancelled before they fired *)
  enqueued : int;  (** summed over every link queue *)
  dropped : int;
}

(* The background declarations [Scenario.run] compiles from the events:
   [classes] single-path classes along the delay-shortest path, RTTs
   spread +/-15% around the declared mean. *)
let background_decls (spec : S.spec) =
  List.concat_map
    (fun { Events.Event.at = start; action } ->
      match action with
      | Events.Event.Background_start
          { src; dst; classes; flows; cc; rate_bps; rtt } ->
        let path =
          match
            Netgraph.Shortest.shortest_path spec.S.topo ~src ~dst
              ~weight:Netgraph.Shortest.delay_ns
          with
          | Some p -> p
          | None -> invalid_arg "Simtrace: no route for background"
        in
        let links =
          Array.mapi
            (fun k l ->
              ( l,
                (Netgraph.Topology.link spec.S.topo l).Netgraph.Topology.u
                = path.Netgraph.Path.nodes.(k) ))
            path.Netgraph.Path.links
        in
        let kind =
          Option.map
            (fun a -> Option.get (Fluid.Controller.of_algorithm a))
            cc
        in
        let start_s = Engine.Time.to_float_s start in
        let rtt_s = Engine.Time.to_float_s rtt in
        List.init classes (fun i ->
            let frac =
              if classes = 1 then 0.5
              else float_of_int i /. float_of_int (classes - 1)
            in
            { Fluid.Background.Driver.links; flows; kind;
              flow_rate_bps = rate_bps;
              rtt_s = rtt_s *. (0.85 +. (0.3 *. frac));
              start_s })
      | _ -> [])
    spec.S.events

(* Tail means in [spec.paths] order; a path with no samples reads 0. *)
let tails_in_path_order (spec : S.spec) per_tag_tails =
  Array.of_list
    (List.map
       (fun (tag, _) ->
         match List.assoc_opt tag per_tag_tails with
         | Some x when Float.is_finite x -> x
         | _ -> 0.0)
       spec.S.paths)

let chain f = function None -> Some f | Some g -> Some (fun x -> g x; f x)

let run sp (spec : S.spec) =
  let open Spans in
  let src_node, dst_node =
    match spec.S.paths with
    | (_, p) :: _ -> (Netgraph.Path.src p, Netgraph.Path.dst p)
    | [] -> invalid_arg "Simtrace.run: no paths"
  in
  let sched = Engine.Sched.create () in
  (* Sentinel one nanosecond past the horizon, queued before anything
     else so it is first among its time: stepping until it fires runs
     exactly the events [Sched.run ~until] would. *)
  let finished = ref false in
  Engine.Sched.at_anon sched
    (Engine.Time.add spec.S.duration (Engine.Time.ns 1))
    (fun () -> finished := true);
  let rng = Engine.Rng.create spec.S.seed in
  let net =
    span sp Netsim "net.create" (fun () ->
        Netsim.Net.create ~sched ~rng ~config:spec.S.net_config spec.S.topo)
  in
  let src_ep, dst_ep =
    span sp Tcp "tcp.endpoints" (fun () ->
        let a = Tcp.Endpoint.create net ~node:src_node in
        (a, Tcp.Endpoint.create net ~node:dst_node))
  in
  (* Hook state: [last] is when the running segment began, [cur] the
     layer a callback's tail (after its last hook) is charged to. *)
  let last = ref 0 and cur = ref Netsim in
  let hook ~ended ~next =
    let t = now_ns () in
    charge sp ended (t - !last);
    last := t;
    cur := next
  in
  Netsim.Net.add_tap net ~node:dst_node (fun _ ->
      hook ~ended:Netsim ~next:Measure);
  let capture =
    span sp Measure "capture.attach" (fun () ->
        Measure.Capture.attach net ~node:dst_node ~conn:1 ())
  in
  Netsim.Net.add_tap net ~node:dst_node (fun _ ->
      hook ~ended:Measure ~next:Netsim);
  let config =
    { Mptcp.Connection.sender = spec.S.sender_config;
      scheduler = spec.S.scheduler;
      send_buffer = spec.S.send_buffer;
      join_delay = spec.S.join_delay;
      start_jitter = spec.S.start_jitter;
      delayed_ack = spec.S.delayed_ack;
      reinjection = false;
      rto_cap = spec.S.rto_cap }
  in
  let conn =
    span sp Mptcp "connection.establish" (fun () ->
        Mptcp.Connection.establish ~net ~src:src_ep ~dst:dst_ep ~conn:1
          ~paths:spec.S.paths ~cc:spec.S.cc ~config
          ~rng:(Engine.Rng.split rng) ?total_bytes:spec.S.total_bytes ())
  in
  ignore
    (span sp Events "event.arm" (fun () ->
         Events.Event.arm ~sched ~net ~conn spec.S.events)
      : Netsim.Traffic.t list);
  let driver =
    match background_decls spec with
    | [] -> None
    | decls ->
      let config =
        { Fluid.Model.default_config with
          mss_bytes = spec.S.sender_config.Tcp.Sender.mss;
          buffer_pkts = spec.S.net_config.Netsim.Net.limit_pkts }
      in
      Some
        (span sp Fluid "background.attach" (fun () ->
             Fluid.Background.Driver.attach ~sched ~net
               ~tick:spec.S.hybrid_tick ~until:spec.S.duration ~config
               (Array.of_list decls)))
  in
  let n_sub = Mptcp.Connection.subflow_count conn in
  ignore
    (span sp Measure "probe.attach" (fun () ->
         List.init n_sub (fun i ->
             let sender = Mptcp.Connection.subflow_sender conn i in
             Measure.Probe.attach ~sched ~period:spec.S.sampling
               ~until:spec.S.duration (fun () -> Tcp.Sender.cwnd sender)))
      : Measure.Probe.t list);
  (* Hooks.  Every tap chains onto whatever the library installed. *)
  let sampling = spec.S.sampling and tick = spec.S.hybrid_tick in
  let hybrid = driver <> None in
  Engine.Sched.set_monitor sched
    (chain
       (fun ts ->
         let t = now_ns () in
         charge sp Engine (t - !last);
         last := t;
         cur :=
           if hybrid && ts mod tick = 0 then Fluid
           else if ts mod sampling = 0 then Measure
           else Netsim)
       (Engine.Sched.monitor sched));
  Netsim.Net.iter_linkqs net (fun ~link:_ ~dir:_ q ->
      Netsim.Linkq.set_monitor q
        (chain
           (fun _ -> hook ~ended:Netsim ~next:Netsim)
           (Netsim.Linkq.monitor q)));
  let net_hooks =
    { Netsim.Net.on_inject = (fun ~node:_ _ -> hook ~ended:Tcp ~next:Netsim);
      on_host_deliver = (fun ~node:_ _ -> hook ~ended:Netsim ~next:Tcp);
      on_no_route = (fun ~node:_ _ -> hook ~ended:Netsim ~next:Netsim) }
  in
  Netsim.Net.set_monitor net
    (Some
       (match Netsim.Net.monitor net with
       | None -> net_hooks
       | Some m ->
         { Netsim.Net.on_inject =
             (fun ~node p -> m.on_inject ~node p; net_hooks.on_inject ~node p);
           on_host_deliver =
             (fun ~node p ->
               m.on_host_deliver ~node p;
               net_hooks.on_host_deliver ~node p);
           on_no_route =
             (fun ~node p ->
               m.on_no_route ~node p;
               net_hooks.on_no_route ~node p) }));
  let cc_layer =
    match spec.S.cc with Mptcp.Algorithm.Cubic -> Tcp | _ -> Mptcp
  in
  for i = 0 to n_sub - 1 do
    let s = Mptcp.Connection.subflow_sender conn i in
    Tcp.Sender.set_monitor s
      (chain
         (function
           | Tcp.Sender.Cwnd_changed _ -> hook ~ended:cc_layer ~next:Tcp
           | _ -> hook ~ended:Tcp ~next:Tcp)
         (Tcp.Sender.monitor s));
    let r = Mptcp.Connection.subflow_receiver conn i in
    Tcp.Receiver.set_monitor r
      (chain (fun _ -> hook ~ended:Tcp ~next:Tcp) (Tcp.Receiver.monitor r))
  done;
  Mptcp.Connection.set_monitor conn
    (chain
       (fun _ -> hook ~ended:Mptcp ~next:Tcp)
       (Mptcp.Connection.monitor conn));
  span sp Engine "sched.run" (fun () ->
      last := now_ns ();
      while not !finished do
        let t0 = now_ns () in
        charge sp !cur (t0 - !last);
        last := t0;
        if not (Engine.Sched.step sched) then finished := true
      done;
      charge sp !cur (now_ns () - !last));
  ignore
    (span sp Measure "sampler.per_tag" (fun () ->
         Measure.Sampler.per_tag capture ~window:spec.S.sampling
           ~until:spec.S.duration)
      : (Packet.tag * Measure.Series.t) list * Measure.Series.t);
  ignore
    (span sp Lp "constraints.optimum" (fun () ->
         Netgraph.Constraints.optimum spec.S.topo (List.map snd spec.S.paths))
      : Netgraph.Constraints.optimum);
  span sp Core "result" (fun () ->
      let enqueued = ref 0 and dropped = ref 0 in
      Netsim.Net.iter_linkqs net (fun ~link:_ ~dir:_ q ->
          let st = Netsim.Linkq.stats q in
          enqueued := !enqueued + st.Netsim.Linkq.enqueued;
          dropped := !dropped + st.Netsim.Linkq.dropped);
      { events = Engine.Sched.events_processed sched - 1;
        packets = Netsim.Net.packets_created net;
        delivered = Mptcp.Connection.delivered_bytes conn;
        cancelled = Engine.Sched.cancelled_count sched;
        enqueued = !enqueued;
        dropped = !dropped })
