"""Deterministic value vocabularies for the synthetic dataset generators.

The paper's dataset sources (TPC-DI, Open Data, ChEMBL, WikiData, Magellan,
ING) cannot be redistributed offline, so the generators in this package
synthesise tables with the same *shape*: realistic person/company/location
vocabularies, identifiers, monetary amounts, chemistry terms, etc.  This
module centralises the word lists and the deterministic samplers they feed.
"""

from __future__ import annotations

import random
from typing import Sequence

__all__ = [
    "FIRST_NAMES",
    "LAST_NAMES",
    "STREET_NAMES",
    "CITIES",
    "COUNTRIES",
    "COUNTRY_CODES",
    "COMPANY_WORDS",
    "GENRES",
    "COMPOUND_PREFIXES",
    "TARGET_PROTEINS",
    "ORGANISMS",
    "TEAM_NAMES",
    "APPLICATION_WORDS",
    "ValueSampler",
]

FIRST_NAMES: tuple[str, ...] = (
    "James", "Mary", "John", "Patricia", "Robert", "Jennifer", "Michael", "Linda",
    "William", "Elizabeth", "David", "Barbara", "Richard", "Susan", "Joseph", "Jessica",
    "Thomas", "Sarah", "Charles", "Karen", "Wei", "Mei", "Hiroshi", "Yuki", "Carlos",
    "Sofia", "Ahmed", "Fatima", "Ivan", "Olga", "Lars", "Ingrid", "Pierre", "Amelie",
    "Marco", "Giulia", "Raj", "Priya", "Kwame", "Amara", "Diego", "Lucia", "Jan",
    "Anna", "Pedro", "Ines", "Omar", "Leila", "Finn", "Freya",
)

LAST_NAMES: tuple[str, ...] = (
    "Smith", "Johnson", "Williams", "Brown", "Jones", "Garcia", "Miller", "Davis",
    "Rodriguez", "Martinez", "Hernandez", "Lopez", "Gonzalez", "Wilson", "Anderson",
    "Thomas", "Taylor", "Moore", "Jackson", "Martin", "Lee", "Chen", "Wang", "Kim",
    "Tanaka", "Suzuki", "Singh", "Patel", "Kumar", "Ali", "Hassan", "Ivanov", "Petrov",
    "Jansen", "De Vries", "Bakker", "Visser", "Muller", "Schmidt", "Fischer", "Weber",
    "Rossi", "Russo", "Ferrari", "Dubois", "Moreau", "Silva", "Santos", "Oliveira", "Costa",
)

STREET_NAMES: tuple[str, ...] = (
    "Main St", "Oak Ave", "Maple Dr", "Cedar Ln", "Elm St", "Pine Rd", "Birch Blvd",
    "Walnut Way", "Chestnut Ct", "Willow Pl", "High St", "Church Rd", "Park Ave",
    "Mill Ln", "Station Rd", "Bridge St", "Tea St", "Fly St", "Bay St", "River Rd",
    "Lake Dr", "Hill St", "Garden Ave", "Forest Ln", "Meadow Way", "Sunset Blvd",
    "Harbor Dr", "Spring St", "Canal St", "Market Sq",
)

CITIES: tuple[str, ...] = (
    "Amsterdam", "Rotterdam", "Delft", "Utrecht", "Eindhoven", "New York", "Chicago",
    "Boston", "Seattle", "Austin", "London", "Manchester", "Berlin", "Munich", "Paris",
    "Lyon", "Madrid", "Barcelona", "Rome", "Milan", "Beijing", "Shanghai", "Tokyo",
    "Osaka", "Toronto", "Vancouver", "Sydney", "Melbourne", "Mumbai", "Delhi",
)

COUNTRIES: tuple[str, ...] = (
    "USA", "China", "Netherlands", "Germany", "France", "UK", "Canada", "India",
    "Spain", "Italy", "Japan", "Brazil", "Australia", "Sweden", "Norway", "Greece",
)

#: Alternative encodings of the same countries (used by WikiData-like and
#: semantically-joinable fabrication to break verbatim value equality).
COUNTRY_CODES: dict[str, str] = {
    "USA": "States",
    "China": "Chn",
    "Netherlands": "NLD",
    "Germany": "Deu",
    "France": "Fra",
    "UK": "Britain",
    "Canada": "Can",
    "India": "Ind",
    "Spain": "Esp",
    "Italy": "Ita",
    "Japan": "Jpn",
    "Brazil": "Bra",
    "Australia": "Aus",
    "Sweden": "Swe",
    "Norway": "Nor",
    "Greece": "Grc",
}

COMPANY_WORDS: tuple[str, ...] = (
    "Global", "Dynamic", "United", "Advanced", "Pacific", "Northern", "Digital",
    "Quantum", "Stellar", "Prime", "Vertex", "Apex", "Nova", "Orion", "Atlas",
    "Systems", "Solutions", "Industries", "Logistics", "Partners", "Holdings",
    "Analytics", "Technologies", "Consulting", "Ventures", "Capital", "Labs",
)

GENRES: tuple[str, ...] = (
    "rock", "pop", "jazz", "blues", "country", "soul", "funk", "folk", "gospel",
    "hip hop", "rhythm and blues", "rockabilly", "disco", "electronic", "punk",
)

COMPOUND_PREFIXES: tuple[str, ...] = (
    "CHEMBL", "MOL", "CPD", "LIG", "SUB",
)

TARGET_PROTEINS: tuple[str, ...] = (
    "EGFR", "HER2", "VEGFR2", "BRAF", "MEK1", "CDK4", "CDK6", "PI3K", "AKT1",
    "mTOR", "JAK2", "BTK", "ALK", "ROS1", "KRAS", "TP53", "PARP1", "HDAC1",
    "DNMT1", "PDE5", "ACE", "COX2", "5HT2A", "D2R", "GABA-A",
)

ORGANISMS: tuple[str, ...] = (
    "Homo sapiens", "Mus musculus", "Rattus norvegicus", "Escherichia coli",
    "Saccharomyces cerevisiae", "Danio rerio", "Drosophila melanogaster",
    "Plasmodium falciparum", "Mycobacterium tuberculosis", "Candida albicans",
)

TEAM_NAMES: tuple[str, ...] = (
    "Phoenix", "Falcon", "Atlas", "Mercury", "Neptune", "Voyager", "Pioneer",
    "Discovery", "Endeavour", "Horizon", "Quasar", "Pulsar", "Nebula", "Comet",
    "Aurora", "Zenith", "Vector", "Matrix", "Lambda", "Sigma",
)

APPLICATION_WORDS: tuple[str, ...] = (
    "Payments", "Ledger", "Risk", "Fraud", "Onboarding", "Reporting", "Billing",
    "Settlement", "Clearing", "Treasury", "Compliance", "Portal", "Gateway",
    "Scheduler", "Archive", "Monitor", "Catalog", "Registry", "Pipeline", "Vault",
)


class ValueSampler:
    """Deterministic sampler over the bundled vocabularies.

    Parameters
    ----------
    seed:
        Seed of the internal ``random.Random`` instance.
    """

    def __init__(self, seed: int = 0) -> None:
        self.rng = random.Random(seed)

    def choice(self, options: Sequence[str]) -> str:
        """Uniformly pick one option."""
        return self.rng.choice(list(options))

    def person_name(self) -> str:
        """A "First Last" person name."""
        return f"{self.choice(FIRST_NAMES)} {self.choice(LAST_NAMES)}"

    def street_address(self) -> str:
        """A "<number>, <street>" address string."""
        return f"{self.rng.randint(1, 250)}, {self.choice(STREET_NAMES)}"

    def city(self) -> str:
        """A city name."""
        return self.choice(CITIES)

    def country(self) -> str:
        """A country name."""
        return self.choice(COUNTRIES)

    def postal_code(self) -> str:
        """A 5-digit postal code."""
        return f"{self.rng.randint(10000, 99999)}"

    def phone(self) -> str:
        """A phone number string."""
        return f"+{self.rng.randint(1, 99)}-{self.rng.randint(100, 999)}-{self.rng.randint(1000000, 9999999)}"

    def email(self, name: str | None = None) -> str:
        """An email address, optionally derived from a person name."""
        base = (name or self.person_name()).lower().replace(" ", ".").replace(",", "")
        domain = self.choice(("example.com", "mail.org", "corp.net", "bank.nl"))
        return f"{base}@{domain}"

    def company(self) -> str:
        """A two-word company name."""
        return f"{self.choice(COMPANY_WORDS)} {self.choice(COMPANY_WORDS)}"

    def date(self, start_year: int = 1990, end_year: int = 2020) -> str:
        """An ISO date string."""
        year = self.rng.randint(start_year, end_year)
        month = self.rng.randint(1, 12)
        day = self.rng.randint(1, 28)
        return f"{year:04d}-{month:02d}-{day:02d}"

    def amount(self, low: float = 10.0, high: float = 100000.0) -> float:
        """A monetary amount rounded to cents."""
        return round(self.rng.uniform(low, high), 2)

    def integer(self, low: int = 0, high: int = 1000) -> int:
        """A uniform integer."""
        return self.rng.randint(low, high)

    def identifier(self, prefix: str = "ID", width: int = 6) -> str:
        """A prefixed zero-padded identifier."""
        return f"{prefix}{self.rng.randint(0, 10 ** width - 1):0{width}d}"

    def hash_token(self, length: int = 12) -> str:
        """A hexadecimal hash-like token (ING#1 columns contain hashes)."""
        return "".join(self.rng.choice("0123456789abcdef") for _ in range(length))

    def sentence(self, words: Sequence[str], length: int = 6) -> str:
        """A pseudo-sentence built from a word list."""
        return " ".join(self.choice(words) for _ in range(length))
