//! Quick calibration probe: FinSQL EX on the fund dev set.

use bench::{dataset, headline_profile};
use bull::{DbId, Lang};
use finsql_core::eval::evaluate_ex_limit;
use finsql_core::pipeline::{FinSql, FinSqlConfig};

fn main() {
    let ds = dataset();
    for lang in [Lang::En, Lang::Cn] {
        let system = FinSql::build(&ds, headline_profile(lang), FinSqlConfig::standard(lang));
        let mut pooled = (0usize, 0usize);
        for db in DbId::ALL {
            let out = evaluate_ex_limit(&ds, db, lang, None, |q| {
                let mut rng = system.question_rng(db, q);
                system.answer(db, q, &mut rng)
            });
            pooled.0 += out.correct;
            pooled.1 += out.total;
            println!("{lang:?} {db}: EX = {:.1}%  ({}/{})", out.ex_pct(), out.correct, out.total);
        }
        println!("{lang:?} pooled: {:.1}%", 100.0 * pooled.0 as f64 / pooled.1 as f64);
    }
}
