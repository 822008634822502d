//! `eirs client`: the load generator for a `serve --listen` front end.

use crate::flags;
use eirs_repro::cli::CliArgs;
use eirs_repro::net::{run_client, ClientConfig};
use eirs_repro::obs::Json;

/// The flags this command reads, by group.
pub const FLAGS: &[&[&str]] = &[
    flags::PARAMS,
    flags::WORKLOAD,
    &[
        "connect",
        "clients",
        "duration",
        "seed",
        "swap",
        "swap-after",
        "json",
    ],
];

pub fn run(args: &CliArgs) -> Result<(), String> {
    let Some(addr) = args.get("connect") else {
        return Err("client needs --connect <host:port> (a `serve --listen` address)".into());
    };
    let p = flags::params(args)?;
    let workload = flags::workload(args)?;
    let clients = args.get_parsed_or("clients", 1usize)?;
    if clients < 1 {
        return Err("--clients must be at least 1".into());
    }
    let seed = args.get_parsed_or("seed", 1u64)?;
    let duration = flags::duration(args, &workload)?;
    let swap_spec = args.get("swap");
    let swap_after = args.get_parsed::<u64>("swap-after")?;
    if swap_after.is_some() && swap_spec.is_none() {
        return Err("--swap-after needs --swap <spec> (the policy to request)".into());
    }
    let json = flags::json_mode(args)?;
    // The whole workload is materialized up front so request ids (global
    // arrival indices) are assigned before the lanes split across
    // connections.
    let mut source = workload.build_source(&p, seed, duration)?;
    let mut arrivals = Vec::new();
    while let Some(a) = source.next_arrival() {
        if a.time > duration {
            break;
        }
        arrivals.push(a);
    }
    if arrivals.is_empty() {
        return Err("the workload produced no arrivals to send".into());
    }
    // Default barrier: mid-stream.
    let swap = swap_spec.map(|spec| {
        let at = swap_after.unwrap_or(arrivals.len() as u64 / 2);
        (at, spec.to_string())
    });
    let start = std::time::Instant::now();
    let report = run_client(addr, &arrivals, &ClientConfig { clients, swap })?;
    let wall = start.elapsed().as_secs_f64();
    if json {
        let latency = (!report.latency.is_empty()).then(|| {
            let mut q = Json::object();
            q.set("count", report.latency.count())
                .set("mean_s", report.latency.mean_seconds())
                .set("p50_s", report.latency.quantile_seconds(0.5))
                .set("p95_s", report.latency.quantile_seconds(0.95))
                .set("p99_s", report.latency.quantile_seconds(0.99));
            q
        });
        let mut doc = Json::object();
        doc.set("schema", "eirs-client/v1")
            .set("connect", addr)
            .set("clients", clients)
            .set("workload", workload.name.clone())
            .set("arrivals", report.arrivals)
            .set("decisions", report.decisions)
            .set("admitted", report.admitted)
            .set("net_sheds", report.net_sheds)
            .set("engine_rejections", report.engine_rejections)
            .set("max_generation", report.max_generation as u64)
            .set("control_replies", report.control_replies.as_slice())
            .set("server_errors", report.server_errors.as_slice())
            .set("wall_s", wall)
            .set("requests_per_sec", report.decisions as f64 / wall)
            .set("latency", latency);
        print!("{}", doc.pretty());
        return Ok(());
    }
    println!(
        "client: {clients} connections -> {addr}, workload={} ({} arrivals)",
        workload.name, report.arrivals
    );
    println!(
        "decisions: {} ({} admitted, {} shed, {} rejected) in {wall:.3} s ({:.0} req/s)",
        report.decisions,
        report.admitted,
        report.net_sheds,
        report.engine_rejections,
        report.decisions as f64 / wall
    );
    if !report.latency.is_empty() {
        println!(
            "latency: mean={:.2}ms p50={:.2}ms p95={:.2}ms p99={:.2}ms",
            report.latency.mean_seconds() * 1e3,
            report.latency.quantile_seconds(0.5) * 1e3,
            report.latency.quantile_seconds(0.95) * 1e3,
            report.latency.quantile_seconds(0.99) * 1e3
        );
    }
    for reply in &report.control_replies {
        println!("control: {reply}");
    }
    for e in &report.server_errors {
        println!("server error: {e}");
    }
    println!(
        "generation: {} (highest seen in any decision)",
        report.max_generation
    );
    Ok(())
}
