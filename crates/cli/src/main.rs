//! `smx-cli`: command-line front end for the SMX reproduction.
//!
//! ```text
//! smx-cli align    --config dna-edit [--jobs N] [--pretty] <query.fa> <reference.fa>
//! smx-cli serve    --config dna-edit --port 0 [--jobs N] [--checkpoint-dir DIR]
//! smx-cli datagen  --config dna-gap --len 1000 --count 4 --profile ont --seed 7 --out pairs.fa
//! smx-cli simulate --config protein --len 1000 --blocks 8 --workers 4
//! smx-cli info
//! ```
//!
//! `align` always aligns on the SMX device through the batch executor
//! (one inline job unless `--jobs` says otherwise); `serve` runs the
//! same executor behind a TCP front door.
//!
//! ## Exit codes
//!
//! `0` success; `2` generic error. Under `--strict`, a batch that ends
//! with failed or shed pairs exits with a *typed* code so pipelines can
//! branch without parsing stderr: `3` pairs shed at admission, `4`
//! deadline exceeded, `5` integrity violation (fail-closed audit). When
//! several apply, the most severe wins: integrity ≻ deadline ≻ shed.
//! `serve` exits `6` when a second SIGTERM/SIGINT lands mid-drain and
//! forces an immediate stop (acked pairs stay durable; resume replays
//! them).

mod args;
mod commands;

use args::Args;
use commands::CliError;

fn main() {
    let tokens: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(tokens) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {}", e.message);
            e.code
        }
    };
    std::process::exit(code);
}

fn run(tokens: Vec<String>) -> Result<(), CliError> {
    let args =
        Args::parse(tokens, commands::SWITCHES, commands::OPTIONS).map_err(|e| e.to_string())?;
    if args.switch("help") || args.positional.is_empty() {
        print!("{}", commands::USAGE);
        return Ok(());
    }
    match args.positional[0].as_str() {
        "align" => commands::align(&args),
        "serve" => commands::serve(&args),
        "datagen" => commands::datagen(&args),
        "simulate" => commands::simulate(&args),
        "matrix" => commands::matrix(&args),
        "info" => commands::info(),
        other => Err(format!("unknown command {other:?}; try --help").into()),
    }
}
